package apps

import (
	"math"

	"repro/internal/core"
	"repro/internal/sched"
)

// SORResult reports a red-black SOR run.
type SORResult struct {
	Grid   []float64
	Sweeps int
}

// sorColorRow relaxes the cells of one colour in row i with relaxation
// factor omega, returning the row's maximum change.  Red cells satisfy
// (i+j) even, black cells (i+j) odd; within a colour all updates are
// independent, which is what makes Gauss–Seidel parallelizable at all.
func sorColorRow(g []float64, i, n, color int, omega float64) float64 {
	row := g[i*n : (i+1)*n]
	up := g[(i-1)*n : i*n]
	down := g[(i+1)*n : (i+2)*n]
	maxDiff := 0.0
	start := 1 + (i+1+color)%2
	for j := start; j < n-1; j += 2 {
		v := 0.25 * (up[j] + down[j] + row[j-1] + row[j+1])
		d := omega * (v - row[j])
		if a := math.Abs(d); a > maxDiff {
			maxDiff = a
		}
		row[j] += d
	}
	return maxDiff
}

// SeqSOR runs red-black successive over-relaxation sequentially until the
// maximum point change drops below tol or maxSweeps is reached.
func SeqSOR(grid []float64, n int, omega, tol float64, maxSweeps int) SORResult {
	g := append([]float64(nil), grid...)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDiff := 0.0
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				if d := sorColorRow(g, i, n, color, omega); d > maxDiff {
					maxDiff = d
				}
			}
		}
		if maxDiff < tol {
			return SORResult{Grid: g, Sweeps: sweep}
		}
	}
	return SORResult{Grid: g, Sweeps: maxSweeps}
}

// sorShared is the shared state of the parallel iteration.
type sorShared struct {
	g       []float64
	maxDiff float64
	done    bool
	sweeps  int
}

// SORProc runs red-black SOR inside a force: each colour's rows are a
// prescheduled DOALL (the loop-exit barrier separates the colours, which
// is the correctness requirement of the method — black cells read only
// red neighbours and vice versa), residual folding is a critical section,
// and the convergence decision is a barrier section.  Unlike Jacobi, SOR
// updates in place: the two-colour schedule is what the Force-era codes
// used to keep Gauss–Seidel's convergence rate on a parallel machine.
func SORProc(p *core.Proc, st *sorShared, n int, omega, tol float64, maxSweeps int) {
	for {
		localMax := 0.0
		for color := 0; color < 2; color++ {
			c := color
			p.DoAll(sched.PreschedBlock, sched.Range{Start: 1, Last: n - 2, Incr: 1}, func(i int) {
				if d := sorColorRow(st.g, i, n, c, omega); d > localMax {
					localMax = d
				}
			})
		}
		p.Critical("sor-residual", func() {
			if localMax > st.maxDiff {
				st.maxDiff = localMax
			}
		})
		p.BarrierSection(func() {
			st.sweeps++
			st.done = st.maxDiff < tol || st.sweeps >= maxSweeps
			st.maxDiff = 0
		})
		if st.done {
			return
		}
	}
}

// SOR runs the parallel iteration on a fresh force program.
func SOR(f *core.Force, grid []float64, n int, omega, tol float64, maxSweeps int) SORResult {
	st := &sorShared{g: append([]float64(nil), grid...)}
	runOn(f, func(p *core.Proc) { SORProc(p, st, n, omega, tol, maxSweeps) })
	return SORResult{Grid: st.g, Sweeps: st.sweeps}
}
