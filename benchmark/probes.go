package main

// probes.go — micro-probes: the cost of each runtime primitive, measured
// by calling the layer's public API in isolation on a force of the
// workload's size, with core.New's default options.  They run in the
// traced run only, after the timed rounds, and feed the layer budget:
// an exact count per op (from core.Force.Stats) times the probed cost of
// one episode is that primitive's modelled share of the op.
//
// Each probe times `rounds` repetitions inside one Force.Run, subtracts
// nothing (the Run handoff is amortised over thousands of episodes) and
// is repeated probeReps times; the median is reported.

import (
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

const probeReps = 5

// probeSet is the probed cost of every primitive at one force size.
type probeSet struct {
	handoffUs         float64 // empty Force.Run on a live force
	barrierNs         float64 // one barrier episode
	reduceNs          float64 // one Gsum episode
	criticalNs        float64 // one Critical entry, every process entering
	preschedNsPerIter float64 // empty-body prescheduled DOALL, per iteration
	selfschedNsPerIt  float64 // empty-body selfscheduled DOALL, per iteration
	preschedLoopNs    float64 // one empty chunked prescheduled DOALL episode
	selfschedLoopNs   float64 // one empty chunked selfscheduled DOALL episode
	askforTaskNs      float64 // one empty Askfor task
}

// timeRun is the median wall time of probeReps runs of program on f.
func timeRun(f *core.Force, program func(p *core.Proc)) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		f.Run(program)
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// probeForce measures every primitive on a fresh force of np processes.
func probeForce(np int) probeSet {
	f := core.New(np)
	defer f.Close()
	var ps probeSet

	const handoffs = 200
	t0 := time.Now()
	for i := 0; i < handoffs; i++ {
		f.Run(func(p *core.Proc) {})
	}
	ps.handoffUs = float64(time.Since(t0)) / handoffs / 1e3

	const episodes = 2000
	ps.barrierNs = timeRun(f, func(p *core.Proc) {
		for i := 0; i < episodes; i++ {
			p.Barrier()
		}
	}) / episodes
	ps.reduceNs = timeRun(f, func(p *core.Proc) {
		for i := 0; i < episodes; i++ {
			core.Gsum(p, 1)
		}
	}) / episodes

	// Every process enters the same named section, so at np > 1 the
	// entries contend; the cost is per entry.
	var counter int
	ps.criticalNs = timeRun(f, func(p *core.Proc) {
		for i := 0; i < episodes; i++ {
			p.Critical("probe", func() { counter++ })
		}
	}) / float64(episodes*np)

	const iters = 1 << 15
	ps.preschedNsPerIter = timeRun(f, func(p *core.Proc) {
		p.PreschedDo(sched.Seq(iters), func(int) {})
	}) / iters
	ps.selfschedNsPerIt = timeRun(f, func(p *core.Proc) {
		p.SelfschedDo(sched.Seq(iters), func(int) {})
	}) / iters

	// The interpreter's chunk tier drives DOALLs span by span; an
	// episode over 32 iterations with an empty body is the fixed cost of
	// one such loop, exit synchronisation included.
	const loops = 1000
	ps.preschedLoopNs = timeRun(f, func(p *core.Proc) {
		for i := 0; i < loops; i++ {
			p.DoAllChunked(sched.PreschedCyclic, sched.Seq(32), func(lo, hi, stride int) {})
		}
	}) / loops
	ps.selfschedLoopNs = timeRun(f, func(p *core.Proc) {
		for i := 0; i < loops; i++ {
			p.DoAllChunked(sched.SelfLock, sched.Seq(32), func(lo, hi, stride int) {})
		}
	}) / loops

	// A binary tree of empty tasks, 4095 of them.
	const depth = 12
	ps.askforTaskNs = timeRun(f, func(p *core.Proc) {
		p.Askfor([]any{1}, func(task any, put func(any)) {
			if d := task.(int); d < depth {
				put(d + 1)
				put(d + 1)
			}
		})
	}) / float64(int(1)<<depth-1)
	return ps
}

// probeNewClose is the median cost in microseconds of creating and
// closing a force of np processes.
func probeNewClose(np int) float64 {
	xs := make([]float64, 200)
	for i := range xs {
		t0 := time.Now()
		core.New(np).Close()
		xs[i] = float64(time.Since(t0)) / 1e3
	}
	return median(xs)
}

// probeAsyncHandoff is the cost in nanoseconds of one Produce -> Consume
// handoff between two processes (ping-pong over two asynchronous
// variables); with one process, of a Produce followed by a Consume.
func probeAsyncHandoff(np int) float64 {
	n := 2
	if np < 2 {
		n = 1
	}
	f := core.New(n)
	defer f.Close()
	ping := core.NewAsync[int](f)
	pong := core.NewAsync[int](f)
	const trips = 2000
	return timeRun(f, func(p *core.Proc) {
		for i := 0; i < trips; i++ {
			switch {
			case n == 1:
				ping.Produce(i)
				ping.Consume()
				pong.Produce(i)
				pong.Consume()
			case p.ID() == 0:
				ping.Produce(i)
				pong.Consume()
			default:
				pong.Produce(ping.Consume())
			}
		}
	}) / (2 * trips)
}
