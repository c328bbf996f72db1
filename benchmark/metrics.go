package main

// metrics.go — the metric tables.  BENCHMARK.json at the root of the
// repository is the registered copy of endToEnd and perLayer (a test
// keeps the two in step); a run reports every end-to-end metric with
// tracing off and every per-layer metric with tracing on, on every
// workload.  A per-layer metric that does not apply to a workload (a
// parse share on the Go-API workload, another workload's program row)
// reads 0 there; only metrics that are measured on every workload — the
// micro-probes and the harness's own numbers — carry a unit of time.

import "strings"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics: what a user of the system sees.  A
// bound is three times the widest ten-seed spread (quartile distance over
// median) the metric showed on any workload on the reference box, rounded
// up: 8.2 % for the costs (script-cold), 5.7 % for par_efficiency.
var endToEnd = []metricDef{
	// Wall time before the first timed op (loading programs and goldens,
	// input generation, warm-up ops, persistent forces, and for
	// native-warm the cold go builds), in seconds at the reference spin.
	{"setup_s", "s", lower, 0.25},
	// Median op time at np=1 / adjacent cal1: the one-process cost of
	// the whole pipeline.
	{"np1_cost_p50", "spins", lower, 0.25},
	// Median op time at np=NP / adjacent calN: cost relative to what NP
	// raw goroutines get from the box at that moment.
	{"npN_cost_p50", "spins", lower, 0.25},
	// np1_cost_p50 / (NP * npN_cost_p50) = (t1/tN) / delivered
	// parallelism; 1.0 scales as well as raw goroutines here and now.
	{"par_efficiency", "ratio", higher, 0.20},
	// Heap allocations and KiB allocated per op at np=NP.
	{"allocs_per_op", "count", lower, 0.05},
	{"alloc_kb_per_op", "KiB", lower, 0.05},
}

// progRows are the programs of the three long script workloads, each
// reported in its own row; appRows the seven applications.
var (
	progRows = []string{
		"stream", "stencil", "dotsum",
		"heat-sweeps", "fused-rounds", "critical-counter", "pipeline-ring", "askfor-tree",
		"aot-stream", "aot-heat-sweeps", "aot-hello",
	}
	appRows = []string{"matmul", "gauss", "jacobi", "scan", "quad", "nbody", "histogram"}
)

// perLayer are the ungated metrics of single layers, prefix = module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Shares of the op at np=NP (self time of the harness's spans);
		// counts per op from core.Force.Stats, in episodes (a collective
		// all NP processes enter counts once).
		{Name: "forcelang.parse_share", Unit: "share", Better: lower},
		{Name: "forcelang.src_bytes_per_op", Unit: "bytes", Better: lower},
		{Name: "vet.analyze_share", Unit: "share", Better: lower},
		{Name: "vet.diags_per_op", Unit: "count", Better: lower},
		{Name: "interp.compile_share", Unit: "share", Better: lower},
		{Name: "interp.execute_share", Unit: "share", Better: lower},
		{Name: "interp.fused_regions_per_op", Unit: "count", Better: higher},
		{Name: "interp.fuse_declines_per_op", Unit: "count", Better: lower},
		{Name: "core.new_close_us", Unit: "us", Better: lower},
		{Name: "core.new_close_share", Unit: "share", Better: lower},
		{Name: "core.barriers_per_op", Unit: "count", Better: lower},
		{Name: "core.loops_per_op", Unit: "count", Better: lower},
		{Name: "core.criticals_per_op", Unit: "count", Better: lower},
		{Name: "core.reductions_per_op", Unit: "count", Better: lower},
		{Name: "core.askfor_tasks_per_op", Unit: "count", Better: lower},
		{Name: "core.pcase_blocks_per_op", Unit: "count", Better: lower},
		// Micro-probes, at np=1 and at np=NP.
		{Name: "engine.handoff_us_np1", Unit: "us", Better: lower},
		{Name: "engine.handoff_us_npN", Unit: "us", Better: lower},
		{Name: "engine.askfor_task_ns_np1", Unit: "ns", Better: lower},
		{Name: "engine.askfor_task_ns_npN", Unit: "ns", Better: lower},
		{Name: "engine.model_share", Unit: "share", Better: lower},
		{Name: "barrier.episode_ns_np1", Unit: "ns", Better: lower},
		{Name: "barrier.episode_ns_npN", Unit: "ns", Better: lower},
		{Name: "barrier.model_share", Unit: "share", Better: lower},
		{Name: "reduce.episode_ns_np1", Unit: "ns", Better: lower},
		{Name: "reduce.episode_ns_npN", Unit: "ns", Better: lower},
		{Name: "reduce.model_share", Unit: "share", Better: lower},
		{Name: "lock.critical_ns_np1", Unit: "ns", Better: lower},
		{Name: "lock.critical_ns_npN", Unit: "ns", Better: lower},
		{Name: "lock.model_share", Unit: "share", Better: lower},
		{Name: "sched.presched_ns_per_iter_np1", Unit: "ns", Better: lower},
		{Name: "sched.presched_ns_per_iter_npN", Unit: "ns", Better: lower},
		{Name: "sched.selfsched_ns_per_iter_np1", Unit: "ns", Better: lower},
		{Name: "sched.selfsched_ns_per_iter_npN", Unit: "ns", Better: lower},
		{Name: "sched.presched_loop_ns_npN", Unit: "ns", Better: lower},
		{Name: "sched.selfsched_loop_ns_npN", Unit: "ns", Better: lower},
		{Name: "sched.model_share", Unit: "share", Better: lower},
		{Name: "asyncvar.handoff_ns", Unit: "ns", Better: lower},
		// The native tier (native-warm only).
		{Name: "codegen.out_bytes", Unit: "bytes", Better: lower},
		{Name: "aot.bin_bytes", Unit: "bytes", Better: lower},
		{Name: "aot.lookup_share", Unit: "share", Better: lower},
		{Name: "aot.run_share", Unit: "share", Better: lower},
		{Name: "aot.tier_speedup", Unit: "ratio", Better: higher},
		// The applications (runtime-apps only).
		{Name: "apps.vs_seq_ratio", Unit: "ratio", Better: lower},
		{Name: "apps.vs_goroutines_ratio", Unit: "ratio", Better: lower},
		// The harness itself.
		{Name: "harness.op_ms_p50_np1", Unit: "ms", Better: lower},
		{Name: "harness.op_ms_p50_npN", Unit: "ms", Better: lower},
		{Name: "harness.op_ms_p90_npN", Unit: "ms", Better: lower},
		{Name: "harness.samples", Unit: "count", Better: higher},
		{Name: "harness.work_per_s", Unit: "1/s", Better: higher},
		{Name: "harness.spin_ms", Unit: "ms", Better: lower},
		{Name: "harness.delivered_parallelism_p50", Unit: "ratio", Better: higher},
		{Name: "harness.delivered_parallelism_min", Unit: "ratio", Better: higher},
		{Name: "harness.degraded_batches", Unit: "count", Better: lower},
		{Name: "harness.peak_rss_mb", Unit: "MiB", Better: lower},
		{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: lower},
		{Name: "harness.residual_share", Unit: "share", Better: lower},
	}
	for _, a := range appRows {
		defs = append(defs, metricDef{Name: "apps." + a + ".par_efficiency", Unit: "ratio", Better: higher})
	}
	for _, p := range progRows {
		defs = append(defs,
			metricDef{Name: "prog." + p + ".np1_cost", Unit: "spins", Better: lower},
			metricDef{Name: "prog." + p + ".npN_cost", Unit: "spins", Better: lower})
	}
	return defs
}

// unitOf gives the unit of a detail metric (one the fixed tables do not
// carry) from its name's suffix.
func unitOf(name string) string {
	for _, d := range append(endToEnd, perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, s := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_ns", "ns"}, {"ns_per_iter", "ns"},
		{"_share", "share"}, {"_ratio", "ratio"}, {"_speedup", "ratio"}, {"_bytes", "bytes"},
		{"_cost", "spins"}, {"_efficiency", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
