package main

// report.go — from samples, spans, counters and probes to named metrics:
// the end-to-end numbers, the per-layer numbers, the per-unit budget
// table whose rows sum to the op, and the JSON forms of all of them.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// envBlock says where and how a report's numbers were taken; a number
// counts only beside the parallelism the box delivered while it was
// measured.
type envBlock struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NP           int     `json:"np"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	SpinSteps    int     `json:"spin_steps"`
	SpinMs       float64 `json:"spin_ms"`
	DeliveredP50 float64 `json:"delivered_parallelism_p50"`
	DeliveredMin float64 `json:"delivered_parallelism_min"`
	Degraded     int     `json:"degraded_batches"`
	BatchesN     int     `json:"npN_batches"`
	Rounds       int     `json:"rounds"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// budgetRow is one unit's op at one configuration, split by layer; Rows
// sum to OpUs by construction (self times of nested spans), and Model
// splits the execute row further by counted episodes times probed cost.
type budgetRow struct {
	Unit       string             `json:"unit"`
	NP         int                `json:"np"`
	OpUs       float64            `json:"op_us"`
	Rows       map[string]float64 `json:"rows_us"`
	Model      map[string]float64 `json:"execute_model_us,omitempty"`
	NsPerIter  float64            `json:"ns_per_iter,omitempty"`
	Cost       float64            `json:"cost_spins"`
	OpMs       float64            `json:"op_ms_p50"`
	Samples    int                `json:"samples"`
	Unresolved bool               `json:"unresolved,omitempty"`
}

// runReport is everything one run of one workload measured.
type runReport struct {
	Workload   string                 `json:"workload"`
	Env        envBlock               `json:"env"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Unresolved []string               `json:"unresolved,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Detail     map[string]metricValue `json:"detail,omitempty"`
	Budget     []budgetRow            `json:"budget,omitempty"`
}

// commit is the VCS revision the binary was built from, when the build
// happened inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Budget row names.
const (
	rowParse    = "forcelang.parse"
	rowVet      = "vet.analyze"
	rowCompile  = "interp.compile"
	rowNewClose = "core.new_close"
	rowExecute  = "interp.execute"
	rowLookup   = "aot.lookup"
	rowAotRun   = "aot.run"
	rowForceRun = "core.force_run"
	rowHarness  = "harness.verify"
)

// budgetOf splits unit ui's traced ops at configuration c by layer.
// The compile span runs from the entry of interp.Run to OnForce and so
// contains the creation of the force; the probed cost of core.New+Close
// is moved out of it into its own row.
func budgetOf(b *bench, ui int, c config, newCloseUs float64, ps probeSet) budgetRow {
	u := b.units[ui]
	cn := &u.counts[c]
	np := b.npOf(c)
	self := func(name string) float64 { return b.tr.selfNsPerOp(ui, c, name, cn.ops) / 1e3 }
	rows := map[string]float64{}
	put := func(row string, us float64) {
		if us != 0 {
			rows[row] = us
		}
	}
	put(rowParse, self(spanParse))
	put(rowVet, self(spanVet))
	compile := self(spanCompile) + self(spanRun)
	newClose := math.Min(newCloseUs, compile)
	put(rowNewClose, newClose)
	put(rowCompile, compile-newClose)
	put(rowExecute, self(spanExecute))
	put(rowLookup, self(spanEnsure))
	put(rowAotRun, self(spanAotRun))
	put(rowForceRun, self(spanForce))
	put(rowHarness, self(spanOp))
	row := budgetRow{Unit: u.name, NP: np, Rows: rows}
	for _, us := range rows {
		row.OpUs += us
	}

	// The model: what the counted episodes of each primitive would cost
	// at the probed price.  The remainder is loop bodies and whatever
	// the counters do not see.
	execute := rows[rowExecute] + rows[rowForceRun]
	if execute > 0 && cn.ops > 0 {
		per := func(n int64) float64 { return float64(n) / float64(cn.ops) }
		loops := per(cn.loops) / float64(np)
		selfLoops := 0.0
		if u.prog != nil {
			selfLoops = math.Min(float64(u.prog.selfLoops), loops)
		}
		m := map[string]float64{
			"barrier": per(cn.barriers) / float64(np) * ps.barrierNs / 1e3,
			"reduce":  per(cn.reductions) / float64(np) * ps.reduceNs / 1e3,
			"lock":    per(cn.criticals) * ps.criticalNs / 1e3,
			"sched":   ((loops-selfLoops)*ps.preschedLoopNs + selfLoops*ps.selfschedLoopNs) / 1e3,
			"engine":  per(cn.askfor) * ps.askforTaskNs / 1e3,
		}
		modelled := 0.0
		for _, us := range m {
			modelled += us
		}
		m["residual"] = execute - modelled
		row.Model = m
		if u.prog != nil && u.prog.iters > 0 {
			row.NsPerIter = execute * 1e3 / float64(u.prog.iters)
		}
	}
	return row
}

// compute reduces a finished bench to the report's metrics.
func compute(w *workloadDef, b *bench, setupS float64, detail map[string]float64, seed int64, seconds int) *runReport {
	res := b.reduce()
	v := map[string]float64{}
	for k, x := range detail {
		v[k] = x
	}

	var cost1, costN, ms1, msN, msN90, allocs, allocKB, ratio1, ratioN []float64
	samples := math.MaxInt
	for _, r := range res {
		cost1, costN = append(cost1, r.cost1), append(costN, r.costN)
		ms1, msN, msN90 = append(ms1, r.ms1), append(msN, r.msN), append(msN90, r.msN90)
		allocs, allocKB = append(allocs, r.allocs), append(allocKB, r.allocKB)
		if !math.IsNaN(r.ratio1) {
			ratio1 = append(ratio1, r.ratio1)
		}
		if !math.IsNaN(r.ratioN) {
			ratioN = append(ratioN, r.ratioN)
		}
		samples = min(samples, r.samples1, r.samplesN)
		v["prog."+r.name+".np1_cost"] = r.cost1
		v["prog."+r.name+".npN_cost"] = r.costN
	}
	np := float64(b.np)
	v["setup_s"] = setupS
	v["np1_cost_p50"] = geomean(cost1)
	v["npN_cost_p50"] = geomean(costN)
	v["par_efficiency"] = v["np1_cost_p50"] / (np * v["npN_cost_p50"])
	v["allocs_per_op"] = mean(allocs)
	v["alloc_kb_per_op"] = mean(allocKB)
	v["fail_ratio"] = float64(b.failed) / float64(b.attempted)

	// The paired ratios mean different things per workload.
	switch w.name {
	case "runtime-apps":
		v["apps.vs_seq_ratio"] = geomean(ratio1)
		v["apps.vs_goroutines_ratio"] = geomean(ratioN)
		for _, r := range res {
			v["apps."+r.name+".par_efficiency"] = r.cost1 / (np * r.costN)
			v["apps."+r.name+".force_ms"] = r.msN
		}
	case "native-warm":
		v["aot.tier_speedup"] = 1 / geomean(ratioN)
	}

	delivered := b.deliveredAll()
	v["harness.op_ms_p50_np1"] = geomean(ms1)
	v["harness.op_ms_p50_npN"] = geomean(msN)
	v["harness.op_ms_p90_npN"] = geomean(msN90)
	v["harness.samples"] = float64(samples)
	v["harness.work_per_s"] = float64(b.opsTimedN) / b.opSeconds
	v["harness.spin_ms"] = median(b.cal1Ns) / 1e6
	v["harness.delivered_parallelism_p50"] = median(delivered)
	v["harness.delivered_parallelism_min"] = quantile(delivered, 0)
	v["harness.degraded_batches"] = float64(b.degraded)
	v["harness.peak_rss_mb"] = peakRSSMB()

	rep := &runReport{
		Workload:  w.name,
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Env: envBlock{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), NP: b.np,
			GoVersion: runtime.Version(), Commit: commit(), Seed: seed, Seconds: seconds, Traced: b.tr != nil,
			SpinSteps: spinSteps, SpinMs: v["harness.spin_ms"],
			DeliveredP50: v["harness.delivered_parallelism_p50"], DeliveredMin: v["harness.delivered_parallelism_min"],
			Degraded: b.degraded, BatchesN: b.batchesN, Rounds: b.rounds,
		},
	}
	if b.unresolved {
		rep.Unresolved = []string{"npN_cost_p50", "par_efficiency"}
	}
	if b.tr != nil {
		traced(b, res, v, rep)
	}

	pick := func(defs []metricDef) map[string]metricValue {
		out := map[string]metricValue{}
		for _, d := range defs {
			out[d.Name] = metricValue{v[d.Name], d.Unit}
			delete(v, d.Name)
		}
		return out
	}
	rep.EndToEnd = pick(endToEnd)
	if b.tr != nil {
		rep.PerLayer = pick(perLayer)
	}
	rep.Detail = map[string]metricValue{}
	for name, x := range v {
		rep.Detail[name] = metricValue{x, unitOf(name)}
	}
	return rep
}

// traced adds what only a traced run knows: probes, counters, the
// budget and the shares derived from it.
func traced(b *bench, res []unitResult, v map[string]float64, rep *runReport) {
	ps := [2]probeSet{probeForce(1), probeForce(b.np)}
	newClose := [2]float64{probeNewClose(1), probeNewClose(b.np)}
	for c, tag := range []string{"_np1", "_npN"} {
		v["engine.handoff_us"+tag] = ps[c].handoffUs
		v["engine.askfor_task_ns"+tag] = ps[c].askforTaskNs
		v["barrier.episode_ns"+tag] = ps[c].barrierNs
		v["reduce.episode_ns"+tag] = ps[c].reduceNs
		v["lock.critical_ns"+tag] = ps[c].criticalNs
		v["sched.presched_ns_per_iter"+tag] = ps[c].preschedNsPerIter
		v["sched.selfsched_ns_per_iter"+tag] = ps[c].selfschedNsPerIt
	}
	v["sched.presched_loop_ns_npN"] = ps[cfgN].preschedLoopNs
	v["sched.selfsched_loop_ns_npN"] = ps[cfgN].selfschedLoopNs
	v["core.new_close_us"] = newClose[cfgN]
	v["asyncvar.handoff_ns"] = probeAsyncHandoff(b.np)

	// Workload-level shares are ratios of sums over the units at np=NP:
	// time-weighted, like the op itself.
	var op, execute float64
	rows := map[string]float64{}
	model := map[string]float64{}
	var total counts
	var overhead []float64
	for ui, u := range b.units {
		for _, c := range []config{cfg1, cfgN} {
			row := budgetOf(b, ui, c, newClose[c], ps[c])
			row.Cost, row.OpMs, row.Samples = res[ui].cost1, res[ui].ms1, res[ui].samples1
			if c == cfgN {
				row.Cost, row.OpMs, row.Samples = res[ui].costN, res[ui].msN, res[ui].samplesN
				row.Unresolved = res[ui].unresolved
			}
			rep.Budget = append(rep.Budget, row)
			if c != cfgN {
				continue
			}
			op += row.OpUs
			for k, us := range row.Rows {
				rows[k] += us
			}
			for k, us := range row.Model {
				model[k] += us
			}
			execute += row.Rows[rowExecute] + row.Rows[rowForceRun]
			if row.NsPerIter > 0 {
				v["interp."+u.name+".ns_per_iter"] = row.NsPerIter
			}
		}
		total.add(u.counts[cfgN])
		overhead = append(overhead, res[ui].overhead1, res[ui].overheadN)
	}
	share := func(us float64) float64 { return us / op }
	v["forcelang.parse_share"] = share(rows[rowParse])
	v["vet.analyze_share"] = share(rows[rowVet])
	v["interp.compile_share"] = share(rows[rowCompile])
	v["interp.execute_share"] = share(rows[rowExecute])
	v["core.new_close_share"] = share(rows[rowNewClose])
	v["aot.lookup_share"] = share(rows[rowLookup])
	v["aot.run_share"] = share(rows[rowAotRun])
	n := float64(len(b.units))
	v["forcelang.parse_us"] = rows[rowParse] / n
	v["vet.analyze_us"] = rows[rowVet] / n
	v["interp.compile_us"] = rows[rowCompile] / n
	v["interp.execute_us"] = rows[rowExecute] / n
	if rows[rowAotRun] > 0 {
		v["aot.lookup_us"] = rows[rowLookup] / n
		v["aot.run_ms"] = rows[rowAotRun] / n / 1e3
	}
	if execute > 0 {
		for _, k := range []string{"barrier", "reduce", "lock", "sched", "engine"} {
			v[k+".model_share"] = model[k] / execute
		}
		v["harness.residual_share"] = model["residual"] / execute
	}
	if total.ops > 0 {
		perOp := func(x int64) float64 { return float64(x) / float64(total.ops) }
		episodes := func(x int64) float64 { return perOp(x) / float64(b.np) }
		v["forcelang.src_bytes_per_op"] = perOp(total.srcBytes)
		v["vet.diags_per_op"] = perOp(total.diags)
		v["interp.fused_regions_per_op"] = perOp(total.fused)
		v["interp.fuse_declines_per_op"] = perOp(total.declined)
		v["core.barriers_per_op"] = episodes(total.barriers)
		v["core.loops_per_op"] = episodes(total.loops)
		v["core.reductions_per_op"] = episodes(total.reductions)
		v["core.criticals_per_op"] = perOp(total.criticals)
		v["core.askfor_tasks_per_op"] = perOp(total.askfor)
		v["core.pcase_blocks_per_op"] = perOp(total.pcase)
	}
	v["harness.trace_overhead_ratio"] = geomean(overhead)
}

// contractLine is the last line of standard output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(rep *runReport) ([]byte, error) {
	metrics := rep.EndToEnd
	if rep.Env.Traced {
		metrics = rep.PerLayer
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

// printReport writes every metric by name with its unit, then the
// budget table, for a reader.
func printReport(w io.Writer, rep *runReport) {
	e := rep.Env
	fmt.Fprintf(w, "forcemark %s: np=%d num_cpu=%d gomaxprocs=%d %s commit=%.12s seed=%d seconds=%d traced=%v\n",
		rep.Workload, e.NP, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.Seconds, e.Traced)
	fmt.Fprintf(w, "calibration: 1 spin = %d steps of 4 xorshift chains over a 512 KiB table = %.3f ms; delivered parallelism p50 %.2f min %.2f; %d of %d np=NP batches degraded; %d rounds\n",
		e.SpinSteps, e.SpinMs, e.DeliveredP50, e.DeliveredMin, e.Degraded, e.BatchesN, e.Rounds)
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	if len(rep.Unresolved) > 0 {
		fmt.Fprintf(w, "unresolved (too few undegraded batches, every batch counted): %v\n", rep.Unresolved)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	section := func(title string, ms map[string]metricValue) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(tw, "-- %s\t\t\n", title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	section("end to end", rep.EndToEnd)
	section("per layer", rep.PerLayer)
	section("detail (not gated)", rep.Detail)
	tw.Flush()
	if len(rep.Budget) == 0 {
		return
	}
	fmt.Fprintln(w, "-- budget: mean self time per op in us (rows sum to op); execute split by counted episodes x probed cost")
	for _, r := range rep.Budget {
		fmt.Fprintf(w, "%-18s np=%d op=%10.1f", r.Unit, r.NP, r.OpUs)
		for _, k := range []string{rowParse, rowVet, rowCompile, rowNewClose, rowExecute, rowLookup, rowAotRun, rowForceRun, rowHarness} {
			if us, ok := r.Rows[k]; ok {
				fmt.Fprintf(w, "  %s=%.1f", k, us)
			}
		}
		if r.Model != nil {
			fmt.Fprint(w, "  |")
			for _, k := range []string{"barrier", "reduce", "lock", "sched", "engine", "residual"} {
				fmt.Fprintf(w, " %s=%.1f", k, r.Model[k])
			}
		}
		fmt.Fprintln(w)
	}
}

// reportFile is the on-disk form -report appends to and -compare reads:
// every run of every workload of one set.
type reportFile struct {
	Runs []*runReport `json:"runs"`
}

func readReports(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendReport adds rep to the report file at path, creating it.
func appendReport(path string, rep *runReport) error {
	rf, err := readReports(path)
	if os.IsNotExist(err) {
		rf, err = &reportFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rep)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
