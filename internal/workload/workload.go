// Package workload provides seeded numeric data — matrices, vectors,
// linear systems with a known solution and a boundary-value grid — so
// every run of an application, test or benchmark sees the same inputs.
package workload

import (
	"math"
	"math/rand"
)

// Matrix returns a seeded n×n matrix in row-major order with entries in
// [-1, 1).
func Matrix(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64()*2 - 1
	}
	return m
}

// Vector returns a seeded vector of length n with entries in [-1, 1).
func Vector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// DiagonallyDominant returns a seeded n×n system matrix guaranteed
// nonsingular: off-diagonal entries in [-1, 1), diagonal set to the row's
// absolute sum plus one.  Gaussian elimination on it is stable without
// pivoting, and with pivoting exercises the pivot-selection path.
func DiagonallyDominant(n int, seed int64) []float64 {
	m := Matrix(n, seed)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				sum += math.Abs(m[i*n+j])
			}
		}
		m[i*n+i] = sum + 1
	}
	return m
}

// SystemWithSolution builds (A, b, x) with A diagonally dominant and
// b = A·x for a known x, so solvers can be verified against x directly.
func SystemWithSolution(n int, seed int64) (a, b, x []float64) {
	a = DiagonallyDominant(n, seed)
	x = make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		b[i] = s
	}
	return a, b, x
}

// Grid returns an n×n grid with fixed boundary values (1 on the top edge,
// 0 elsewhere), the standard Laplace/Jacobi test problem.
func Grid(n int) []float64 {
	g := make([]float64, n*n)
	for j := 0; j < n; j++ {
		g[j] = 1 // top row
	}
	return g
}
