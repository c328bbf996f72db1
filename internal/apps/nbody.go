package apps

import (
	"math"

	"repro/internal/core"
	"repro/internal/sched"
)

// Bodies is a flat SoA particle system in two dimensions.
type Bodies struct {
	X, Y   []float64
	VX, VY []float64
	Mass   []float64
}

// NewBodies builds n bodies in a deterministic ring configuration.
func NewBodies(n int) *Bodies {
	b := &Bodies{
		X: make([]float64, n), Y: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n),
		Mass: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		b.X[i] = math.Cos(theta)
		b.Y[i] = math.Sin(theta)
		b.VX[i] = -math.Sin(theta) * 0.1
		b.VY[i] = math.Cos(theta) * 0.1
		b.Mass[i] = 1 + 0.01*float64(i%5)
	}
	return b
}

// Clone deep-copies the system.
func (b *Bodies) Clone() *Bodies {
	return &Bodies{
		X:    append([]float64(nil), b.X...),
		Y:    append([]float64(nil), b.Y...),
		VX:   append([]float64(nil), b.VX...),
		VY:   append([]float64(nil), b.VY...),
		Mass: append([]float64(nil), b.Mass...),
	}
}

const nbodySoftening = 1e-3

// accel computes the acceleration on body i from all others.
func (b *Bodies) accel(i int) (ax, ay float64) {
	for j := range b.X {
		if j == i {
			continue
		}
		dx := b.X[j] - b.X[i]
		dy := b.Y[j] - b.Y[i]
		r2 := dx*dx + dy*dy + nbodySoftening
		inv := b.Mass[j] / (r2 * math.Sqrt(r2))
		ax += dx * inv
		ay += dy * inv
	}
	return ax, ay
}

// SeqNBodyStep advances the system one leapfrog step of size dt,
// sequentially.
func SeqNBodyStep(b *Bodies, dt float64) {
	n := len(b.X)
	ax := make([]float64, n)
	ay := make([]float64, n)
	for i := 0; i < n; i++ {
		ax[i], ay[i] = b.accel(i)
	}
	for i := 0; i < n; i++ {
		b.VX[i] += ax[i] * dt
		b.VY[i] += ay[i] * dt
		b.X[i] += b.VX[i] * dt
		b.Y[i] += b.VY[i] * dt
	}
}

// NBodyStepProc advances one step inside a force: the O(n²) acceleration
// phase is a selfscheduled DOALL (iteration costs are uniform here, but
// the discipline is selectable for the T3 experiment), the integration
// phase a prescheduled DOALL; the loop-exit barriers separate the phases.
func NBodyStepProc(p *core.Proc, kind sched.Kind, b *Bodies, dt float64, ax, ay []float64) {
	n := len(b.X)
	p.DoAll(kind, sched.Seq(n), func(i int) {
		ax[i], ay[i] = b.accel(i)
	})
	p.DoAll(sched.PreschedBlock, sched.Seq(n), func(i int) {
		b.VX[i] += ax[i] * dt
		b.VY[i] += ay[i] * dt
		b.X[i] += b.VX[i] * dt
		b.Y[i] += b.VY[i] * dt
	})
}

// NBodySteps runs steps leapfrog steps on a fresh force program.
func NBodySteps(f *core.Force, kind sched.Kind, b *Bodies, dt float64, steps int) {
	n := len(b.X)
	ax := make([]float64, n)
	ay := make([]float64, n)
	runOn(f, func(p *core.Proc) {
		for s := 0; s < steps; s++ {
			NBodyStepProc(p, kind, b, dt, ax, ay)
		}
	})
}

// Energy returns the system's kinetic + potential energy (for invariance
// checks).
func (b *Bodies) Energy() float64 {
	e := 0.0
	n := len(b.X)
	for i := 0; i < n; i++ {
		e += 0.5 * b.Mass[i] * (b.VX[i]*b.VX[i] + b.VY[i]*b.VY[i])
		for j := i + 1; j < n; j++ {
			dx := b.X[j] - b.X[i]
			dy := b.Y[j] - b.Y[i]
			e -= b.Mass[i] * b.Mass[j] / math.Sqrt(dx*dx+dy*dy+nbodySoftening)
		}
	}
	return e
}
