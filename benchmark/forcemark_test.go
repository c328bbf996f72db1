package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/workload"
)

var programDirs = []string{"script-cold", "doall-stream", "sync-bound"}

// Every program reproduces its committed golden on the default tier at
// np = 1, 2 and 3, forcevet-clean (scriptRunner.run fails an op that
// draws a diagnostic).
func TestProgramsMatchGoldens(t *testing.T) {
	cfg, err := forcerunDefaults()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dir := range programDirs {
		progs, err := loadPrograms(dir)
		if err != nil {
			t.Fatal(err)
		}
		total += len(progs)
		r := &scriptRunner{cfg: cfg}
		for _, p := range progs {
			for _, np := range []int{1, 2, 3} {
				if !r.run(p, np, nil, nil) {
					t.Errorf("%s/%s at np=%d: got %q, want %q", dir, p.name, np, r.out.String(), p.want)
				}
			}
		}
	}
	if total < 45 {
		t.Errorf("only %d programs loaded", total)
	}
}

// The goldens are the tree walker's output at np=1: an implementation
// other than the tier the benchmark times.
func TestGoldensComeFromTreeWalker(t *testing.T) {
	cfg, err := forcerunDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = interp.ExecTree
	cfg.NP = 1
	for _, dir := range programDirs {
		progs, err := loadPrograms(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			prog, err := forcelang.Parse(p.src)
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, p.name, err)
			}
			var out bytes.Buffer
			c := cfg
			c.Stdout = &out
			if err := interp.Run(prog, c); err != nil {
				t.Fatalf("%s/%s: %v", dir, p.name, err)
			}
			if out.String() != p.want {
				t.Errorf("%s/%s: tree walker prints %q, golden is %q", dir, p.name, out.String(), p.want)
			}
		}
	}
}

// lastInt is the last integer a golden prints.
func lastInt(t *testing.T, dir, name string) int64 {
	t.Helper()
	p, err := loadProgram(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(p.want)
	n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("%s/%s: golden %q does not end in an integer", dir, name, p.want)
	}
	return n
}

// manifestParam reads an integer the source states, e.g. the sweep count
// in "DO S = 1, 48".
func manifestParam(t *testing.T, dir, name, pattern string) int64 {
	t.Helper()
	p, err := loadProgram(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(pattern).FindStringSubmatch(p.src)
	if m == nil {
		t.Fatalf("%s/%s: no match for %s", dir, name, pattern)
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// Where a program has a closed form the golden is checked against it,
// so a wrong tree walker cannot have produced a wrong golden unnoticed.
func TestGoldensMatchClosedForms(t *testing.T) {
	mod := func(a, b int64) int64 { return a % b }

	// stream: k sweeps of a = a*0.999 + b from a = 1.
	k := float64(manifestParam(t, "doall-stream", "stream", `DO S = 1, (\d+)`))
	sum := 0.0
	for i := int64(1); i <= 16384; i += 64 {
		b := float64(mod(i, 7)) / 1000
		decay := math.Pow(0.999, k)
		sum += decay + b*(1-decay)/0.001
	}
	if got, want := lastInt(t, "doall-stream", "stream"), int64(math.Round(sum*1000)); got < want-1 || got > want+1 {
		t.Errorf("stream checksum %d, closed form %d", got, want)
	}

	// dotsum: passes of sum(x*y + s).
	passes := manifestParam(t, "doall-stream", "dotsum", `DO S = 1, (\d+)`)
	var dot int64
	for s := int64(1); s <= passes; s++ {
		for i := int64(1); i <= 16384; i++ {
			dot += (mod(i, 13)-6)*(mod(i*7, 11)-5) + s
		}
	}
	if got := lastInt(t, "doall-stream", "dotsum"); got != dot {
		t.Errorf("dotsum total %d, closed form %d", got, dot)
	}

	// fused-rounds: each round adds 36 + (3+r) + 8 + (r-5) + 6.
	rounds := manifestParam(t, "sync-bound", "fused-rounds", `DO R = 1, (\d+)`)
	if got, want := lastInt(t, "sync-bound", "fused-rounds"), 48*rounds+rounds*(rounds+1); got != want {
		t.Errorf("fused-rounds total %d, closed form %d", got, want)
	}

	// pipeline-ring: lap l delivers l + 64.
	laps := manifestParam(t, "sync-bound", "pipeline-ring", `DO L = 1, (\d+)`)
	if got, want := lastInt(t, "sync-bound", "pipeline-ring"), laps*(laps+1)/2+64*laps; got != want {
		t.Errorf("pipeline-ring token sum %d, closed form %d", got, want)
	}

	// critical-counter: the weight is sum(i mod 7).
	entries := manifestParam(t, "sync-bound", "critical-counter", `DO I = 1, (\d+)`)
	var weight int64
	for i := int64(1); i <= entries; i++ {
		weight += mod(i, 7)
	}
	if got := lastInt(t, "sync-bound", "critical-counter"); got != weight {
		t.Errorf("critical-counter weight %d, closed form %d", got, weight)
	}

	// askfor-tree: a full binary tree of the stated depth.
	depth := manifestParam(t, "sync-bound", "askfor-tree", `Askfor T = (\d+)`)
	if got, want := lastInt(t, "sync-bound", "askfor-tree"), int64(1)<<depth-1; got != want {
		t.Errorf("askfor-tree tasks %d, closed form %d", got, want)
	}
}

// The manifest's counts agree with what the runtime counts: the stated
// selfscheduled episodes are among the force's loop episodes, and the
// stated iteration count is there for every long program.
func TestManifestsAgreeWithCounters(t *testing.T) {
	cfg, err := forcerunDefaults()
	if err != nil {
		t.Fatal(err)
	}
	const np = 2
	for _, dir := range []string{"doall-stream", "sync-bound"} {
		progs, err := loadPrograms(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			var c counts
			tr := newTracer()
			if !(&scriptRunner{cfg: cfg}).run(p, np, tr, &c) {
				t.Fatalf("%s/%s failed", dir, p.name)
			}
			if p.iters <= 0 {
				t.Errorf("%s/%s: manifest states no iteration count", dir, p.name)
			}
			if loops := c.loops / np; p.selfLoops > loops {
				t.Errorf("%s/%s: manifest states %d selfscheduled loops, the force ran %d loops", dir, p.name, p.selfLoops, loops)
			}
		}
	}
}

// The hand-written goroutine versions compute what apps.Seq* computes.
func TestBaselinesEqualSequential(t *testing.T) {
	const n = 48
	a, b := workload.Matrix(n, 1), workload.Matrix(n, 2)
	grid := workload.Grid(n)
	data := workload.Vector(5000, 3)
	for i, x := range data {
		data[i] = (x + 1) / 2
	}
	seqBodies := apps.NewBodies(40)
	for s := 0; s < 2; s++ {
		apps.SeqNBodyStep(seqBodies, 1e-4)
	}
	for _, np := range []int{1, 2, 3} {
		if !closeTo(goMatMul(a, b, n, np), apps.SeqMatMul(a, b, n)) {
			t.Errorf("goMatMul differs from SeqMatMul at np=%d", np)
		}
		if !closeTo(goJacobi(grid, n, 10, np), apps.SeqJacobi(grid, n, 0, 10).Grid) {
			t.Errorf("goJacobi differs from SeqJacobi at np=%d", np)
		}
		if !closeTo(intsToFloats(goHistogram(data, 16, np)), intsToFloats(apps.SeqHistogram(data, 16))) {
			t.Errorf("goHistogram differs from SeqHistogram at np=%d", np)
		}
		bodies := apps.NewBodies(40)
		goNBody(bodies, 1e-4, 2, np)
		if !closeTo(bodyState(bodies), bodyState(seqBodies)) {
			t.Errorf("goNBody differs from SeqNBodyStep at np=%d", np)
		}
	}
}

func TestCloseTo(t *testing.T) {
	if !closeTo([]float64{1, 1e6, 0}, []float64{1 + 1e-10, 1e6 + 1e-4, 1e-10}) {
		t.Error("values within 1e-9 relative must compare equal")
	}
	for _, bad := range [][]float64{{1 + 1e-8, 1e6, 0}, {1, 1e6}, {math.NaN(), 1e6, 0}} {
		if closeTo(bad, []float64{1, 1e6, 0}) {
			t.Errorf("%v must not compare equal", bad)
		}
	}
}

// Calibration self-test: an op that is nothing but the calibration spin
// on np goroutines costs 1.00 +- 0.05 spins at np=1 and at np=NP.
func TestPureSpinCostsOneSpin(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for a second")
	}
	spin := &unit{name: "spin", ops: 1}
	spin.run = func(np int, _ *tracer, _ *rand.Rand) int {
		var wg sync.WaitGroup
		for g := 0; g < np; g++ {
			wg.Add(1)
			go func(t spinTable) {
				defer wg.Done()
				t.spin()
			}(spinTables[g])
		}
		wg.Wait()
		return 0
	}
	b := newBench(2, 1, []*unit{spin}, false)
	b.measureFor(1500 * time.Millisecond)
	r := b.reduce()[0]
	if math.Abs(r.cost1-1) > 0.05 || math.Abs(r.costN-1) > 0.05 {
		t.Errorf("pure spin costs %.3f spins at np=1 and %.3f at np=2, want 1.00 +- 0.05 (%d and %d samples)",
			r.cost1, r.costN, r.samples1, r.samplesN)
	}
}

// A span's self time is its duration minus its children's, so the rows
// of an op sum to the op.
func TestTracerSelfTimesSumToOp(t *testing.T) {
	tr := newTracer()
	op := tr.begin(spanOp)
	a := tr.begin("a")
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin("b")
	time.Sleep(time.Millisecond)
	tr.end(inner)
	tr.end(a)
	tr.end(op)
	total := float64(tr.kept[0].end - tr.kept[0].start)
	sum := tr.selfNsPerOp(0, cfg1, spanOp, 1) + tr.selfNsPerOp(0, cfg1, "a", 1) + tr.selfNsPerOp(0, cfg1, "b", 1)
	if math.Abs(sum-total) > 1 {
		t.Errorf("self times sum to %v ns, the op took %v ns", sum, total)
	}
	if self := tr.selfNsPerOp(0, cfg1, "a", 1); self < 1.5e6 || self > float64(tr.kept[1].end-tr.kept[1].start) {
		t.Errorf("self time of a = %v ns", self)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // must not panic
}

// A short traced run of a whole workload: every registered metric is
// reported, and every budget row set sums to its op within 1%.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for a second")
	}
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	rep, err := runWorkload(findWorkload("sync-bound"), 1, 1, true, dir+"/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, d := range endToEnd {
		if m, ok := rep.EndToEnd[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s = %+v", d.Name, m)
		}
	}
	for _, d := range perLayer {
		if m, ok := rep.PerLayer[d.Name]; !ok || math.IsNaN(m.Value) || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v", d.Name, m)
		}
	}
	if _, err := contractLine(rep); err != nil {
		t.Error(err)
	}
	for _, row := range rep.Budget {
		sum := 0.0
		for _, us := range row.Rows {
			sum += us
		}
		if math.Abs(sum-row.OpUs) > 0.01*row.OpUs {
			t.Errorf("%s np=%d: rows sum to %.1f us, op is %.1f us", row.Unit, row.NP, sum, row.OpUs)
		}
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, err := os.ReadFile(dir + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("trace file: %v, %d events", err, len(chrome.TraceEvents))
	}
}

// BENCHMARK.json registers exactly the tables and workloads in the code.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", reg.RunSeconds, runSeconds)
	}
	if len(reg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d in the code", len(reg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if reg.Workloads[i].Name != w.name || reg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: registered %+v, code has %s: %s", i, reg.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics registered, %d in the code", len(got), kind, len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: registered %+v, code has %+v", kind, i, got[i], want[i])
			}
			if seen[want[i].Name] {
				t.Errorf("metric name %s is used twice", want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	same("end-to-end", reg.EndToEnd, endToEnd)
	same("per-layer", reg.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}

func TestCompareVerdicts(t *testing.T) {
	cost := metricDef{Name: "np1_cost_p50", Unit: "spins", Better: lower, Bound: 0.10}
	eff := metricDef{Name: "par_efficiency", Unit: "ratio", Better: higher, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.8, 1.0, 1.3, 0.9, 1.2}
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		flagged bool
		want    string
	}{
		{"same", cost, steady, steady, false, "ok"},
		{"within the bound", cost, steady, []float64{1.08, 1.09, 1.07}, false, "ok"},
		{"beyond the bound", cost, steady, []float64{1.15, 1.16, 1.14}, false, "regressed"},
		{"better", cost, steady, []float64{0.5, 0.6}, false, "ok"},
		{"higher is better, drop", eff, steady, []float64{0.85, 0.86}, false, "regressed"},
		{"higher is better, gain", eff, steady, []float64{1.5}, false, "ok"},
		{"base too noisy to tell", cost, noisy, []float64{1.2, 1.25}, false, "unresolved"},
		{"noisy base, but every run better", cost, noisy, []float64{0.5, 0.6}, false, "ok"},
		{"a run could not resolve it", cost, steady, steady, true, "unresolved"},
		{"missing", cost, steady, nil, false, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.flagged); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(cost float64) *reportFile {
		rf := &reportFile{}
		for i := 0; i < 3; i++ {
			e2e := map[string]metricValue{}
			for _, d := range endToEnd {
				e2e[d.Name] = metricValue{1, d.Unit}
			}
			e2e["np1_cost_p50"] = metricValue{cost, "spins"}
			rf.Runs = append(rf.Runs, &runReport{Workload: "w", Correct: true, EndToEnd: e2e})
		}
		return rf
	}
	var out bytes.Buffer
	if code := compareReports(&out, mk(1), mk(1.05)); code != 0 {
		t.Errorf("A/A-like comparison exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, mk(1), mk(1.5)); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 50%% regression exits %d:\n%s", code, out.String())
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("minimum = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("maximum = %v", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(geomean(nil)) {
		t.Error("empty input must give NaN")
	}
	if fmt.Sprint(xs) != "[4 1 3 2]" {
		t.Error("quantile must not reorder its input")
	}
}
