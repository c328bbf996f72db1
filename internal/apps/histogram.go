package apps

import (
	"repro/internal/core"
	"repro/internal/sched"
)

// SeqHistogram bins data from [0, 1) into bins buckets sequentially.
func SeqHistogram(data []float64, bins int) []int64 {
	h := make([]int64, bins)
	for _, x := range data {
		h[binOf(x, bins)]++
	}
	return h
}

func binOf(x float64, bins int) int {
	b := int(x * float64(bins))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

// HistogramCriticalProc bins data inside a force with every increment
// under one named critical section — the naive translation, used as the
// contention ablation.
func HistogramCriticalProc(p *core.Proc, data []float64, bins int, h []int64) {
	p.ChunkDo(sched.Seq(len(data)), func(i int) {
		b := binOf(data[i], bins)
		p.Critical("hist", func() { h[b]++ })
	})
}

// histGrant is how many elements one claim of HistogramPrivateProc's
// selfscheduled loop takes: about plan.GrantNs (4 µs) of binning at ~1 ns
// an element, so a claim buys a few handoffs' worth of work.
const histGrant = 4096

// HistogramPrivateProc bins into per-process private histograms and merges
// them once under the critical section — the private-variable idiom the
// Force's variable classification encourages.  The loop is chunk
// selfscheduled, histGrant elements a claim, and a granted span is
// binned whole.
func HistogramPrivateProc(p *core.Proc, data []float64, bins int, h []int64) {
	local := make([]int64, bins)
	p.DoAllGranted(sched.Chunk, histGrant, sched.Seq(len(data)), func(lo, hi, _ int) {
		for i := lo; i < hi; i += core.PoisonEvery {
			p.Check()
			for _, x := range data[i:min(i+core.PoisonEvery, hi)] {
				local[binOf(x, bins)]++
			}
		}
	})
	p.Critical("hist-merge", func() {
		for b, c := range local {
			h[b] += c
		}
	})
	p.Barrier() // all merges complete before any process reads h
}

// HistogramCritical runs the critical-per-increment version on a fresh
// force program.
func HistogramCritical(f *core.Force, data []float64, bins int) []int64 {
	h := make([]int64, bins)
	runOn(f, func(p *core.Proc) { HistogramCriticalProc(p, data, bins, h) })
	return h
}

// HistogramPrivate runs the private-merge version on a fresh force
// program.
func HistogramPrivate(f *core.Force, data []float64, bins int) []int64 {
	h := make([]int64, bins)
	runOn(f, func(p *core.Proc) { HistogramPrivateProc(p, data, bins, h) })
	return h
}
