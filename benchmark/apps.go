package main

// apps.go — the runtime-apps workload: the T8 applications of
// internal/apps through the Go API on one persistent force per
// configuration, created with core.New's default options.  Inputs come
// from internal/workload with the benchmark's seed.  Every result is
// compared with the application's sequential (apps.Seq*) result, which
// the set-up computes once, within 1e-9 relative.

import (
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// T8's full sizes (cmd/forcebench expT8 without -quick).
const (
	matN      = 256
	gaussN    = 512
	jacobiN   = 256
	sweeps    = 100
	scanN     = 1 << 18
	quadCost  = 2000
	quadTol   = 1e-10
	bodiesN   = 512
	bodySteps = 3
	bodyDt    = 1e-4
	histN     = 1 << 20
	histBins  = 64
)

// app is one application: its sequential version, its Force version on a
// given force, and (for four of them) the hand-written goroutine version.
type app struct {
	name  string
	seq   func() []float64
	force func(f *core.Force) []float64
	gor   func(np int) []float64
}

// closeTo reports whether got equals want within 1e-9 relative (absolute
// below magnitude 1), element by element.
func closeTo(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g == w {
			continue // the common case, and much the cheapest to test
		}
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Max(math.Abs(g), math.Abs(w))) || math.IsNaN(g) {
			return false
		}
	}
	return true
}

func intsToFloats(h []int64) []float64 {
	out := make([]float64, len(h))
	for i, x := range h {
		out[i] = float64(x)
	}
	return out
}

// bodyState flattens a particle system into one comparable vector.
func bodyState(b *apps.Bodies) []float64 {
	out := append([]float64(nil), b.X...)
	out = append(out, b.Y...)
	out = append(out, b.VX...)
	return append(out, b.VY...)
}

// buildApps generates the inputs from seed and returns the seven
// applications.
func buildApps(seed int64) []app {
	a := workload.Matrix(matN, seed)
	b := workload.Matrix(matN, seed+1)
	sysA, sysB, _ := workload.SystemWithSolution(gaussN, seed+2)
	grid := workload.Grid(jacobiN)
	vec := workload.Vector(scanN, seed+3)
	data := workload.Vector(histN, seed+4)
	for i, x := range data {
		data[i] = (x + 1) / 2 // [-1, 1) -> [0, 1), histogram's domain
	}
	integrand := apps.Costly(apps.Spike, quadCost)
	return []app{
		{
			name:  "matmul",
			seq:   func() []float64 { return apps.SeqMatMul(a, b, matN) },
			force: func(f *core.Force) []float64 { return apps.MatMul(f, sched.SelfAtomic, a, b, matN) },
			gor:   func(np int) []float64 { return goMatMul(a, b, matN, np) },
		},
		{
			name: "gauss",
			seq: func() []float64 {
				x, err := apps.SeqSolve(sysA, sysB, gaussN)
				if err != nil {
					return nil
				}
				return x
			},
			force: func(f *core.Force) []float64 {
				x, err := apps.Solve(f, sysA, sysB, gaussN)
				if err != nil {
					return nil
				}
				return x
			},
		},
		{
			name:  "jacobi",
			seq:   func() []float64 { return apps.SeqJacobi(grid, jacobiN, 0, sweeps).Grid },
			force: func(f *core.Force) []float64 { return apps.Jacobi(f, grid, jacobiN, 0, sweeps).Grid },
			gor:   func(np int) []float64 { return goJacobi(grid, jacobiN, sweeps, np) },
		},
		{
			name:  "scan",
			seq:   func() []float64 { return apps.SeqScan(vec) },
			force: func(f *core.Force) []float64 { return apps.Scan(f, vec) },
		},
		{
			name:  "quad",
			seq:   func() []float64 { return []float64{apps.SeqQuad(integrand, 0, 1, quadTol)} },
			force: func(f *core.Force) []float64 { return []float64{apps.Quad(f, integrand, 0, 1, quadTol)} },
		},
		{
			name: "nbody",
			seq: func() []float64 {
				bs := apps.NewBodies(bodiesN)
				for s := 0; s < bodySteps; s++ {
					apps.SeqNBodyStep(bs, bodyDt)
				}
				return bodyState(bs)
			},
			force: func(f *core.Force) []float64 {
				bs := apps.NewBodies(bodiesN)
				apps.NBodySteps(f, sched.Chunk, bs, bodyDt, bodySteps)
				return bodyState(bs)
			},
			gor: func(np int) []float64 {
				bs := apps.NewBodies(bodiesN)
				goNBody(bs, bodyDt, bodySteps, np)
				return bodyState(bs)
			},
		},
		{
			name:  "histogram",
			seq:   func() []float64 { return intsToFloats(apps.SeqHistogram(data, histBins)) },
			force: func(f *core.Force) []float64 { return intsToFloats(apps.HistogramPrivate(f, data, histBins)) },
			gor:   func(np int) []float64 { return intsToFloats(goHistogram(data, histBins, np)) },
		},
	}
}

// setupApps creates the two persistent forces and one unit per
// application.  Force creation is set-up, not op: the timed path is
// Force.Run and what the application does inside it.
func setupApps(e *env) (*setupState, error) {
	forces := map[int]*core.Force{1: core.New(1)}
	if e.np != 1 {
		forces[e.np] = core.New(e.np)
	}
	cleanup := func() {
		for _, f := range forces {
			f.Close()
		}
	}
	var units []*unit
	for _, a := range buildApps(e.seed) {
		a := a
		want := a.seq()
		verdict := func(got []float64) int {
			if want != nil && closeTo(got, want) {
				return 0
			}
			return 1
		}
		u := &unit{name: a.name, ops: 1}
		u.run = func(np int, tr *tracer, _ *rand.Rand) int {
			f := forces[np]
			op := tr.begin(spanOp)
			defer tr.end(op)
			var c *counts
			if tr != nil {
				c = &u.counts[tr.cfg]
				c.ops++
				c.addStats(f.Stats(), -1)
			}
			sp := tr.begin(spanForce)
			got := a.force(f)
			tr.end(sp)
			if c != nil {
				c.addStats(f.Stats(), +1)
			}
			return verdict(got)
		}
		u.ref1 = func() int { return verdict(a.seq()) }
		if a.gor != nil {
			u.refN = func(np int) int { return verdict(a.gor(np)) }
		}
		units = append(units, u)
	}
	if err := warmUp(e, units); err != nil {
		cleanup()
		return nil, err
	}
	return &setupState{units: units, cleanup: cleanup}, nil
}
