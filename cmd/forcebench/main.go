// Command forcebench prints the reproduction's paper-shape tables
// (README.md, "Benchmarks") over the variants the tree keeps.  It is not
// the performance gate — that is forcemark (benchmark/) — and writes no
// files:
//
//	F1  the paper's Selfsched DO macro-expansion listing
//	T1  six-machine portability/conformance matrix
//	T2  the paper's two-lock barrier vs the sense-reversing barrier
//	T3  prescheduled vs selfscheduled DOALL under skew
//	T4  lock category comparison (spin / system / combined)
//	T5  produce/consume: two-lock scheme vs HEP hardware full/empty
//	T6  process creation models (fork-copy / shared fork / create-call)
//	T7  Pcase and Askfor overhead
//	T8  application speedups (matmul, gauss, jacobi, scan, quadrature)
//	T9  Askfor distribution: [LO83] monitor pool vs work-stealing deques
//	T10 global reductions: critical vs slots
//	A1  ablation: the paper's barrier over every lock kind
//	A2  ablation: selfscheduling chunk size
//
// Usage:
//
//	forcebench [-exp all|F1|T1|...] [-quick] [-maxnp N] [-runs R] [-barrier twolock|sense] [-chunk N] [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (CPU over the whole invocation, heap at exit after a GC),
// so harness hot paths can be inspected directly:
//
//	forcebench -exp T10 -quick -cpuprofile cpu.out && go tool pprof cpu.out
//
// -barrier overrides the global barrier algorithm of every force the
// timed experiments build.  Experiments whose subject is the barrier or
// the creation path ignore it: T2 and A1 sweep barrier algorithms
// themselves, and T6 times force creation models.
// -chunk overrides the selfscheduling span size of every force the
// timed experiments build (sched.Config.ChunkSize for the
// selfsched-chunk discipline); A2, whose subject is the chunk size,
// ignores it.
//
// Absolute numbers are machine-dependent; the tables exist to show the
// paper's qualitative shapes (who wins, by what factor, where crossovers
// fall).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/barrier"
	"repro/internal/core"
)

// experiment is one regenerable table.
type experiment struct {
	id    string
	title string
	run   func(c config) error
}

// config carries harness-wide knobs.
type config struct {
	quick   bool
	maxNP   int
	runs    int
	barKind barrier.Kind
	barSet  bool // -barrier was given: override experiment defaults
	chunk   int  // -chunk: selfsched span size (0 = discipline default)
}

// force builds a core force for a timed experiment, honoring the global
// -barrier and -chunk overrides.  Experiment-specific defaults go in
// opts; the barrier override is appended last, so it wins, while the
// chunk override is prepended, so an experiment sweeping the chunk size
// itself (A2) keeps its own setting.
func (c config) force(np int, opts ...core.Option) *core.Force {
	if c.chunk > 0 {
		opts = append([]core.Option{core.WithChunk(c.chunk)}, opts...)
	}
	if c.barSet {
		opts = append(opts, core.WithBarrier(c.barKind))
	}
	return core.New(np, opts...)
}

// npSweep returns the process counts used by sweeping experiments.
func (c config) npSweep() []int {
	all := []int{1, 2, 4, 8, 16, 32}
	var out []int
	for _, np := range all {
		if np <= c.maxNP {
			out = append(out, np)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (F1, T1..T10, A1, A2) or all")
		quick   = flag.Bool("quick", false, "smaller problem sizes and fewer repetitions")
		maxNP   = flag.Int("maxnp", 2*runtime.GOMAXPROCS(0), "largest force size in sweeps")
		runs    = flag.Int("runs", 3, "timing repetitions per cell")
		barF    = flag.String("barrier", "", "override the barrier algorithm of timed forces: twolock or sense (ignored by T2, A1, T6)")
		chunkN  = flag.Int("chunk", 0, "override the selfsched span size of timed forces (0 = discipline default; ignored by A2)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	c := config{quick: *quick, maxNP: *maxNP, runs: *runs, chunk: *chunkN}
	if *barF != "" {
		bk, err := barrier.ParseKind(*barF)
		if err != nil {
			fail(err)
		}
		c.barKind, c.barSet = bk, true
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer writeMemProfile(*memProf)
	}

	exps := experiments()
	if *exp == "all" {
		ids := make([]string, 0, len(exps))
		for id := range exps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if err := runOne(exps[id], c); err != nil {
				fail(err)
			}
		}
		return
	}
	e, ok := exps[strings.ToUpper(*exp)]
	if !ok {
		fmt.Fprintf(os.Stderr, "forcebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := runOne(e, c); err != nil {
		fail(err)
	}
}

func runOne(e experiment, c config) error {
	fmt.Printf("### %s — %s\n\n", e.id, e.title)
	return e.run(c)
}

func experiments() map[string]experiment {
	list := []experiment{
		{"F1", "Selfsched DO expansion listing (paper §4.2)", expF1},
		{"T1", "six-machine portability matrix", expT1},
		{"T2", "barrier algorithms: two-lock vs sense-reversing", expT2},
		{"T3", "prescheduled vs selfscheduled DOALL", expT3},
		{"T4", "lock category comparison (§4.1.3)", expT4},
		{"T5", "produce/consume realizations (§4.2)", expT5},
		{"T6", "process creation models (§4.1.1)", expT6},
		{"T7", "Pcase and Askfor overhead (§3.3)", expT7},
		{"T8", "application speedups", expT8},
		{"T9", "Askfor distribution: monitor pool vs stealing deques", expT9},
		{"T10", "global reductions: critical vs slots", expT10},
		{"A1", "ablation: two-lock barrier over lock kinds", expA1},
		{"A2", "ablation: selfscheduling chunk size", expA2},
	}
	m := map[string]experiment{}
	for _, e := range list {
		m[e.id] = e
	}
	return m
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "forcebench:", err)
	os.Exit(1)
}

// writeMemProfile dumps the heap profile after a GC so the numbers
// reflect live harness allocations, not garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forcebench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "forcebench:", err)
	}
}
