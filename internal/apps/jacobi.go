package apps

import (
	"math"

	"repro/internal/core"
	"repro/internal/sched"
)

// JacobiResult reports a Jacobi run: the final grid and the number of
// sweeps performed.
type JacobiResult struct {
	Grid   []float64
	Sweeps int
}

// SeqJacobi relaxes the interior of an n×n grid (boundary fixed) until
// the maximum point change drops below tol or maxSweeps is reached.
func SeqJacobi(grid []float64, n int, tol float64, maxSweeps int) JacobiResult {
	cur := append([]float64(nil), grid...)
	next := append([]float64(nil), grid...)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDiff := 0.0
		for i := 1; i < n-1; i++ {
			maxDiff = math.Max(maxDiff, relaxRow(cur, next, i, n))
		}
		cur, next = next, cur
		if maxDiff < tol {
			return JacobiResult{Grid: cur, Sweeps: sweep}
		}
	}
	return JacobiResult{Grid: cur, Sweeps: maxSweeps}
}

// relaxRow computes row i of the sweep and returns the row's maximum point
// change.  Row slices are hoisted so the kernel is identical for the
// sequential and parallel versions.
func relaxRow(cur, next []float64, i, n int) float64 {
	up := cur[(i-1)*n : i*n]
	mid := cur[i*n : (i+1)*n]
	down := cur[(i+1)*n : (i+2)*n]
	out := next[i*n : (i+1)*n]
	maxDiff := 0.0
	for j := 1; j < n-1; j++ {
		v := 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
		d := math.Abs(v - mid[j])
		if d > maxDiff {
			maxDiff = d
		}
		out[j] = v
	}
	return maxDiff
}

// jacobiShared is the shared state of the parallel sweep.
type jacobiShared struct {
	cur, next []float64
	maxDiff   float64
	done      bool
	sweeps    int
}

// JacobiProc runs the Jacobi iteration inside a force: interior rows are
// a prescheduled DOALL per sweep, each process folds its local maximum
// change into the shared residual under a critical section, and the
// barrier section swaps the grids and decides convergence for everyone —
// barriers, criticals and DOALLs in the exact composition the Force was
// designed around.
func JacobiProc(p *core.Proc, st *jacobiShared, n int, tol float64, maxSweeps int) {
	for {
		localMax := 0.0
		// Hoist the buffer pointers once per sweep: they change only in
		// the swap section, which the loop-exit barrier orders.
		cur, next := st.cur, st.next
		p.DoAll(sched.PreschedBlock, sched.Range{Start: 1, Last: n - 2, Incr: 1}, func(i int) {
			if d := relaxRow(cur, next, i, n); d > localMax {
				localMax = d
			}
		})
		p.Critical("jacobi-residual", func() {
			if localMax > st.maxDiff {
				st.maxDiff = localMax
			}
		})
		p.BarrierSection(func() {
			st.cur, st.next = st.next, st.cur
			st.sweeps++
			st.done = st.maxDiff < tol || st.sweeps >= maxSweeps
			st.maxDiff = 0
		})
		if st.done {
			return
		}
		// No extra barrier needed before the next sweep: its DOALL
		// cannot complete (and so no process can reach the next swap
		// section) until every process has passed this done check.
	}
}

// Jacobi runs the parallel iteration on a fresh force program.
func Jacobi(f *core.Force, grid []float64, n int, tol float64, maxSweeps int) JacobiResult {
	st := &jacobiShared{
		cur:  append([]float64(nil), grid...),
		next: append([]float64(nil), grid...),
	}
	runOn(f, func(p *core.Proc) { JacobiProc(p, st, n, tol, maxSweeps) })
	return JacobiResult{Grid: st.cur, Sweeps: st.sweeps}
}
