package apps

import (
	"repro/internal/core"
	"repro/internal/sched"
)

// SeqScan computes the inclusive prefix sum of v sequentially.
func SeqScan(v []float64) []float64 {
	out := make([]float64, len(v))
	run := 0.0
	for i, x := range v {
		run += x
		out[i] = run
	}
	return out
}

// ScanProc computes the inclusive prefix sum of v into out inside a force
// with the work-efficient block scan: two prescheduled DOALLs whose
// iterations are the np blocks sched.BlockSpan(k, np, n), so the result
// depends on np only, never on which process ran which block.  Pass 1
// sums every block but the last into sums[k] (np-1 slots); pass 2 scans
// block k from sums[0] + … + sums[k-1].  The first DOALL's exit publishes
// sums, so no barrier section is needed, and at np=1 pass 1 is empty and
// pass 2 is SeqScan.
func ScanProc(p *core.Proc, v, out, sums []float64) {
	np, n := p.NP(), len(v)
	p.DoAllChunked(sched.PreschedBlock, sched.Seq(np-1), func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			b, e := sched.BlockSpan(k, np, n)
			s := 0.0
			for i := b; i < e; i += core.PoisonEvery {
				p.Check()
				for _, x := range v[i:min(i+core.PoisonEvery, e)] {
					s += x
				}
			}
			sums[k] = s
		}
	})
	p.DoAllChunked(sched.PreschedBlock, sched.Seq(np), func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			run := 0.0
			for _, s := range sums[:k] {
				run += s
			}
			b, e := sched.BlockSpan(k, np, n)
			for i := b; i < e; i += core.PoisonEvery {
				p.Check()
				end := min(i+core.PoisonEvery, e)
				dst := out[i:end]
				for j, x := range v[i:end] {
					run += x
					dst[j] = run
				}
			}
		}
	})
}

// Scan runs the parallel prefix sum on a fresh force program.
func Scan(f *core.Force, v []float64) []float64 {
	out := make([]float64, len(v))
	sums := make([]float64, f.NP()-1)
	runOn(f, func(p *core.Proc) { ScanProc(p, v, out, sums) })
	return out
}
