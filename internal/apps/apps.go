// Package apps contains Force-style parallel applications of the kind the
// language evolved from ("a parallel programming language ... which
// evolved in the course of implementing numerical algorithms", paper §2):
// matrix multiplication, Gaussian elimination, Jacobi iteration,
// work-efficient block prefix, adaptive quadrature (the Askfor showcase),
// histogramming, and an N-body step.
//
// Every application comes in two forms: a sequential baseline (Seq*) and
// a Force program (*Proc) written against the core runtime — work
// distributed by DOALLs, coordination by barriers with barrier sections,
// reductions by critical sections, dynamic work by Askfor — plus a
// convenience wrapper that runs the Force program on a fresh force.  The
// pairs power both the correctness tests (parallel equals sequential)
// and the T8 application-speedup experiment.
package apps

import "repro/internal/core"

// runOn executes program on the force and returns after Join.
func runOn(f *core.Force, program func(p *core.Proc)) {
	f.Run(program)
}

// Idx2 flattens a row-major (i, j) index for an n-column matrix.
func Idx2(i, j, n int) int { return i*n + j }
