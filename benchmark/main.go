// Command forcemark is the repository's benchmark: five workloads that
// drive the system the way cmd/forcerun does with default options,
// verify every output, and report calibrated end-to-end metrics (tracing
// off) or per-layer metrics and a layer budget (tracing on).  See
// README.md in this directory for the metric and workload definitions.
//
//	forcemark -workload NAME [-seed N] [-seconds N] [-trace 0|1]
//	          [-report FILE] [-trace-out FILE]
//	forcemark -compare A.json B.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxNP caps the force size: NP = min(NumCPU, maxNP).
const maxNP = 4

// runLimit aborts a run that would overstay the driver's 180 s: a hang
// must end as a failure, not as a stuck process.
const runLimit = 170 * time.Second

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json registers the same number.
const runSeconds = 15

// referenceSpinSeconds is the length of the calibration spin on an
// undisturbed reference box.  setup_s is the set-up's wall time divided
// by its adjacent spin and multiplied by this: seconds as they would be
// at the reference speed, so that it repeats across the box's regimes
// like the costs do (the raw seconds are reported as
// harness.setup_raw_s).
const referenceSpinSeconds = 0.005

// setupReps and setupBudget bound how often the set-up is repeated for
// its median: at most setupReps times, and not again once setupBudget
// has been spent (native-warm's cold builds are steady enough once).
const (
	setupReps   = 3
	setupBudget = 3 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("forcemark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (\"all\" runs every one in turn)")
		seed     = fs.Int64("seed", 1, "seed of the inputs and of the visiting order")
		seconds  = fs.Int("seconds", runSeconds, "how long to measure")
		trace    = fs.Int("trace", 0, "1 records spans, counters and micro-probes and reports the per-layer metrics")
		report   = fs.String("report", "", "append the run's full report to this JSON file")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		compare  = fs.Bool("compare", false, "compare two report files: forcemark -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: forcemark -compare A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	var todo []*workloadDef
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workloadDef{w}
	}
	if len(todo) == 0 || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "usage: forcemark -workload NAME [-seed N] [-seconds N] [-trace 0|1] [-report FILE] [-trace-out FILE]\nworkloads: %v, all\n", names)
		return 2
	}
	status := 0
	for _, w := range todo {
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(stderr, "forcemark: %s did not finish within %v\n", w.name, runLimit)
			os.Exit(3)
		})
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1, *traceOut)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(stderr, "forcemark: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, rep)
		if *report != "" {
			if err := appendReport(*report, rep); err != nil {
				fmt.Fprintf(stderr, "forcemark: %v\n", err)
				return 1
			}
		}
		line, err := contractLine(rep)
		if err != nil {
			fmt.Fprintf(stderr, "forcemark: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

// runWorkload sets the workload up (several times, for a steady
// setup_s), measures it for the given time and reduces the result.
func runWorkload(w *workloadDef, seed int64, seconds int, traced bool, traceOut string) (*runReport, error) {
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	e := &env{np: min(runtime.NumCPU(), maxNP), seed: seed, scratch: scratch}

	var (
		setups, raw []float64
		st          *setupState
		started     = time.Now()
	)
	for len(setups) < setupReps && (len(setups) == 0 || time.Since(started) < setupBudget) {
		if st != nil {
			st.cleanup()
		}
		spin := cal1()
		t0 := time.Now()
		st, err = w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		raw = append(raw, s)
		setups = append(setups, s/(spin/1e9)*referenceSpinSeconds)
	}
	defer st.cleanup()
	if st.detail == nil {
		st.detail = map[string]float64{}
	}
	st.detail["harness.setup_raw_s"] = median(raw)

	b := newBench(e.np, seed, st.units, traced)
	b.measureFor(time.Duration(seconds) * time.Second)
	rep := compute(w, b, median(setups), st.detail, seed, seconds)
	if traced && traceOut != "" {
		if err := b.tr.writeChrome(traceOut, b.units); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
