package main

// baselines.go — what a Go programmer would write instead of a Force
// program: plain goroutines, a sync.WaitGroup and a block decomposition,
// no runtime library.  These are the denominator of vs_goroutines_ratio
// (Nanz et al.: score a parallel language against an idiomatic
// hand-written version, not only against sequential code).  Each computes
// exactly what its apps.Seq* counterpart computes.

import (
	"math"
	"sync"

	"repro/internal/apps"
)

// blocks calls body(lo, hi) on np goroutines, one contiguous block of
// [0, n) each, and waits for all of them.
func blocks(n, np int, body func(g, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(np)
	for g := 0; g < np; g++ {
		lo, hi := g*n/np, (g+1)*n/np
		go func(g int) {
			defer wg.Done()
			body(g, lo, hi)
		}(g)
	}
	wg.Wait()
}

// goMatMul computes c = a·b, rows split in blocks.
func goMatMul(a, b []float64, n, np int) []float64 {
	c := make([]float64, n*n)
	blocks(n, np, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out := c[i*n : i*n+n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				if aik == 0 {
					continue
				}
				row := b[k*n : k*n+n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	})
	return c
}

// goJacobi runs sweeps Jacobi sweeps over the interior of an n×n grid,
// interior rows split in blocks, goroutines joined after every sweep.
func goJacobi(grid []float64, n, sweeps, np int) []float64 {
	cur := append([]float64(nil), grid...)
	next := append([]float64(nil), grid...)
	for s := 0; s < sweeps; s++ {
		blocks(n-2, np, func(_, lo, hi int) {
			for i := lo + 1; i < hi+1; i++ {
				up, mid, down := cur[(i-1)*n:i*n], cur[i*n:(i+1)*n], cur[(i+1)*n:(i+2)*n]
				out := next[i*n : (i+1)*n]
				for j := 1; j < n-1; j++ {
					out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
				}
			}
		})
		cur, next = next, cur
	}
	return cur
}

// goNBody advances the system steps leapfrog steps: accelerations in
// blocks, a join, then the integration in blocks.
func goNBody(b *apps.Bodies, dt float64, steps, np int) {
	n := len(b.X)
	ax := make([]float64, n)
	ay := make([]float64, n)
	for s := 0; s < steps; s++ {
		blocks(n, np, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				var sx, sy float64
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					dx := b.X[j] - b.X[i]
					dy := b.Y[j] - b.Y[i]
					r2 := dx*dx + dy*dy + 1e-3 // apps' softening term
					inv := b.Mass[j] / (r2 * math.Sqrt(r2))
					sx += dx * inv
					sy += dy * inv
				}
				ax[i], ay[i] = sx, sy
			}
		})
		blocks(n, np, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				b.VX[i] += ax[i] * dt
				b.VY[i] += ay[i] * dt
				b.X[i] += b.VX[i] * dt
				b.Y[i] += b.VY[i] * dt
			}
		})
	}
}

// goHistogram bins data from [0, 1) into private histograms, one per
// goroutine, merged after the join.
func goHistogram(data []float64, bins, np int) []int64 {
	local := make([][]int64, np)
	blocks(len(data), np, func(g, lo, hi int) {
		h := make([]int64, bins)
		for _, x := range data[lo:hi] {
			k := int(x * float64(bins))
			if k < 0 {
				k = 0
			}
			if k >= bins {
				k = bins - 1
			}
			h[k]++
		}
		local[g] = h
	})
	total := make([]int64, bins)
	for _, h := range local {
		for k, c := range h {
			total[k] += c
		}
	}
	return total
}
