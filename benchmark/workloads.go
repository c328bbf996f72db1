package main

// workloads.go — the five workloads.  Each set-up loads what it needs,
// generates its inputs from the seed, and warms every unit up once at
// both configurations (a warm-up op is verified like any other); the
// time all of that takes is the workload's setup_s.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aot"
	"repro/internal/codegen"
	"repro/internal/forcelang"
)

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (README and
	// BENCHMARK.json carry the same sentence).
	why string
	// setup builds the units; its cleanup releases what it acquired
	// (forces, cache directories).
	setup func(e *env) (*setupState, error)
}

// setupState is a workload ready to be measured.
type setupState struct {
	units   []*unit
	cleanup func()
	// detail are workload-specific numbers the set-up itself measured
	// (native-warm's build time and code sizes).
	detail map[string]float64
}

// env is what a set-up may depend on.
type env struct {
	np      int
	seed    int64
	scratch string
}

var workloads = []workloadDef{
	{
		name:  "script-cold",
		why:   "forcerun on 40 small scripts: parse, vet, compile and force creation do most of the work, the runtime primitives almost none",
		setup: setupScriptCold,
	},
	{
		name:  "doall-stream",
		why:   "three long DOALL loops on the chunked interpreter: per-iteration cost, the striped store and span scheduling do the work, the front end under 1%",
		setup: func(e *env) (*setupState, error) { return setupScripts(e, "doall-stream") },
	},
	{
		name:  "sync-bound",
		why:   "five programs of tiny constructs repeated thousands of times: barrier, reduce, lock, asyncvar and the Askfor pool dominate, loop bodies are negligible",
		setup: func(e *env) (*setupState, error) { return setupScripts(e, "sync-bound") },
	},
	{
		name:  "runtime-apps",
		why:   "the T8 applications through the Go API on one persistent force, beside sequential and hand-written goroutine versions: no interpreter and no force creation in the timed path",
		setup: setupApps,
	},
	{
		name:  "native-warm",
		why:   "a long loop, a sync-heavy program and hello through the warm aot tier beside the chunked interpreter: the only workload where codegen, aot and process launch do the work",
		setup: setupNative,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scriptUnit makes a one-program unit on the chunked interpreter.
func scriptUnit(p *program) (*unit, error) {
	cfg, err := forcerunDefaults()
	if err != nil {
		return nil, err
	}
	r := &scriptRunner{cfg: cfg}
	u := &unit{name: p.name, ops: 1, prog: p}
	u.run = func(np int, tr *tracer, _ *rand.Rand) int {
		var c *counts
		if tr != nil {
			c = &u.counts[tr.cfg]
		}
		if r.run(p, np, tr, c) {
			return 0
		}
		return 1
	}
	return u, nil
}

// warmUp runs every unit once at both configurations and fails the
// set-up if any op fails: a workload that cannot produce its goldens
// must not be timed.
func warmUp(e *env, units []*unit) error {
	rng := rand.New(rand.NewSource(e.seed))
	for _, u := range units {
		for _, np := range []int{1, e.np} {
			if failed := u.run(np, nil, rng); failed > 0 {
				return fmt.Errorf("warm-up of %s at np=%d: %d of %d ops failed", u.name, np, failed, u.ops)
			}
		}
		if u.ref1 != nil && u.ref1() > 0 {
			return fmt.Errorf("warm-up of %s: sequential reference failed", u.name)
		}
		if u.refN != nil && u.refN(e.np) > 0 {
			return fmt.Errorf("warm-up of %s: np=%d reference failed", u.name, e.np)
		}
	}
	return nil
}

// setupScripts builds one unit per program of programs/<dir>.
func setupScripts(e *env, dir string) (*setupState, error) {
	progs, err := loadPrograms(dir)
	if err != nil {
		return nil, err
	}
	var units []*unit
	for _, p := range progs {
		u, err := scriptUnit(p)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return &setupState{units: units, cleanup: func() {}}, warmUp(e, units)
}

// coldWarmPasses is how many passes over the script set the set-up makes
// before timing, so the runtime's pools and the allocator are in their
// steady state when the first timed pass starts.
const coldWarmPasses = 8

// setupScriptCold builds the single unit of script-cold: one batch is
// one pass over the whole set in a freshly shuffled order.
func setupScriptCold(e *env) (*setupState, error) {
	progs, err := loadPrograms("script-cold")
	if err != nil {
		return nil, err
	}
	cfg, err := forcerunDefaults()
	if err != nil {
		return nil, err
	}
	r := &scriptRunner{cfg: cfg}
	order := make([]int, len(progs))
	for i := range order {
		order[i] = i
	}
	u := &unit{name: "pass", ops: len(progs)}
	u.run = func(np int, tr *tracer, rng *rand.Rand) int {
		var c *counts
		if tr != nil {
			c = &u.counts[tr.cfg]
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		failed := 0
		for _, k := range order {
			if !r.run(progs[k], np, tr, c) {
				failed++
			}
		}
		return failed
	}
	units := []*unit{u}
	for i := 0; i < coldWarmPasses; i++ {
		if err := warmUp(e, units); err != nil {
			return nil, err
		}
	}
	return &setupState{units: units, cleanup: func() {}}, nil
}

// nativePrograms are the native-warm programs: where each lives and the
// name its rows carry.
var nativePrograms = []struct{ dir, name string }{
	{"doall-stream", "stream"},
	{"sync-bound", "heat-sweeps"},
	{"script-cold", "hello"},
}

// setupNative builds the three binaries into a fresh cache under
// scratch (the cold `go build`s are this workload's set-up time) and
// makes one unit per program: the op is what `forcerun -exec aot` does
// on a warm cache — parse, vet, cache lookup, launch, verify — and the
// reference beside it is the same program on the chunked interpreter.
func setupNative(e *env) (*setupState, error) {
	dir, err := os.MkdirTemp(e.scratch, "aot-cache-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	fail := func(err error) (*setupState, error) {
		cleanup()
		return nil, err
	}
	cache, err := aot.Open(dir)
	if err != nil {
		return fail(err)
	}
	icfg, err := forcerunDefaults()
	if err != nil {
		return fail(err)
	}
	// forcerun hands the aot tier the same option values it would hand
	// the interpreter.
	opts := aot.Options{Selfsched: icfg.Selfsched, Reduce: icfg.Reduce, Barrier: icfg.Barrier, Askfor: icfg.Askfor}
	ctx := context.Background()
	// Sizes and generation time are means over the three programs.
	detail := map[string]float64{}
	nProgs := float64(len(nativePrograms))
	var units []*unit
	for _, spec := range nativePrograms {
		p, err := loadProgram(spec.dir, spec.name)
		if err != nil {
			return fail(err)
		}
		prog, err := forcelang.Parse(p.src)
		if err != nil {
			return fail(err)
		}
		entry, err := cache.EnsureContext(ctx, prog, opts)
		if err != nil {
			return fail(fmt.Errorf("building %s: %w", p.name, err))
		}
		t0 := time.Now()
		gen, err := codegen.Generate(prog, codegen.Options{
			Package: "main", Selfsched: opts.Selfsched, Reduce: opts.Reduce, Barrier: opts.Barrier, Askfor: opts.Askfor,
		})
		if err != nil {
			return fail(err)
		}
		detail["codegen.generate_us"] += float64(time.Since(t0)) / 1e3 / nProgs
		detail["codegen.out_bytes"] += float64(len(gen)) / nProgs
		detail["aot.bin_bytes"] += float64(entry.Meta.BinSize) / nProgs
		r := &scriptRunner{cfg: icfg}
		interpR := &scriptRunner{cfg: icfg}
		u := &unit{name: "aot-" + p.name, ops: 1, prog: p}
		u.run = func(n int, tr *tracer, _ *rand.Rand) int {
			var c *counts
			if tr != nil {
				c = &u.counts[tr.cfg]
			}
			op := tr.begin(spanOp)
			defer tr.end(op)
			prog, ok := front(p, tr, c)
			if !ok {
				return 1
			}
			sp := tr.begin(spanEnsure)
			entry, err := cache.EnsureContext(ctx, prog, opts)
			tr.end(sp)
			if err != nil {
				return 1
			}
			r.out.Reset()
			sp = tr.begin(spanAotRun)
			err = entry.RunContext(ctx, n, &r.out)
			tr.end(sp)
			if err != nil || string(r.out.Bytes()) != p.want {
				return 1
			}
			return 0
		}
		interp := func(n int) int {
			if interpR.run(p, n, nil, nil) {
				return 0
			}
			return 1
		}
		u.ref1 = func() int { return interp(1) }
		u.refN = interp
		units = append(units, u)
	}
	st := cache.Stats()
	if st.Builds != int64(len(nativePrograms)) {
		return fail(fmt.Errorf("native-warm: expected %d cold builds, the cache reports %v", len(nativePrograms), st))
	}
	detail["aot.build_s"] = st.BuildTime.Seconds()
	if err := warmUp(e, units); err != nil {
		return fail(err)
	}
	return &setupState{units: units, cleanup: cleanup, detail: detail}, nil
}

// scratchDir returns (creating it) the directory benchmark runs may write
// to: .bench_build under the working directory, which the driver's
// checkout ignores.
func scratchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(wd, ".bench_build")
	return dir, os.MkdirAll(dir, 0o755)
}
