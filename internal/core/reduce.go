package core

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/reduce"
	"repro/internal/trace"
)

// Global reductions: the G* operations combine one contribution from
// every process of the force and hand the combined value back to all of
// them — a collective construct with the same exit guarantee as a DOALL's
// implicit barrier (no process proceeds before the combination is
// complete).  The executing strategy is selected per force with
// WithReduce; reduce.Critical reproduces the hand-rolled
// critical-section-plus-barrier idiom the paper's programs used, the
// other strategies are the contention-free replacements.
//
// Like NewAsync, the generic entry points are free functions taking the
// *Proc because Go methods cannot introduce type parameters.

// Number constrains the element types of the numeric global operations.
type Number interface {
	~int | ~int64 | ~float64
}

// Gsum returns the global sum of every process's contribution.
func Gsum[T Number](p *Proc, x T) T {
	return reduceVia(p, reduce.Sum, x, func(a, b T) T { return a + b }, nil)
}

// Gprod returns the global product of every process's contribution.
func Gprod[T Number](p *Proc, x T) T {
	return reduceVia(p, reduce.Prod, x, func(a, b T) T { return a * b }, nil)
}

// Gmax returns the global maximum of every process's contribution.
func Gmax[T Number](p *Proc, x T) T {
	return reduceVia(p, reduce.Max, x, maxOf[T], nil)
}

// Gmin returns the global minimum of every process's contribution.
func Gmin[T Number](p *Proc, x T) T {
	return reduceVia(p, reduce.Min, x, minOf[T], nil)
}

// Gand returns the global conjunction of every process's contribution.
func Gand(p *Proc, x bool) bool {
	return reduceVia(p, reduce.And, x, func(a, b bool) bool { return a && b }, nil)
}

// Gor returns the global disjunction of every process's contribution.
func Gor(p *Proc, x bool) bool {
	return reduceVia(p, reduce.Or, x, func(a, b bool) bool { return a || b }, nil)
}

// GsumTo, GprodTo, GmaxTo, GminTo, GandTo and GorTo additionally store
// the combined value through dst exactly once, in the process that
// completes the combination, before any process is released — the
// race-free way to land a reduction in a shared variable (a per-process
// store of the same value is still a data race to the memory model).
// All processes must pass the same destination.

// GsumTo is Gsum with a single-store destination.
func GsumTo[T Number](p *Proc, x T, dst *T) T {
	return reduceVia(p, reduce.Sum, x, func(a, b T) T { return a + b }, func(r T) { *dst = r })
}

// GprodTo is Gprod with a single-store destination.
func GprodTo[T Number](p *Proc, x T, dst *T) T {
	return reduceVia(p, reduce.Prod, x, func(a, b T) T { return a * b }, func(r T) { *dst = r })
}

// GmaxTo is Gmax with a single-store destination.
func GmaxTo[T Number](p *Proc, x T, dst *T) T {
	return reduceVia(p, reduce.Max, x, maxOf[T], func(r T) { *dst = r })
}

// GminTo is Gmin with a single-store destination.
func GminTo[T Number](p *Proc, x T, dst *T) T {
	return reduceVia(p, reduce.Min, x, minOf[T], func(r T) { *dst = r })
}

// GandTo is Gand with a single-store destination.
func GandTo(p *Proc, x bool, dst *bool) bool {
	return reduceVia(p, reduce.And, x, func(a, b bool) bool { return a && b }, func(r bool) { *dst = r })
}

// GorTo is Gor with a single-store destination.
func GorTo(p *Proc, x bool, dst *bool) bool {
	return reduceVia(p, reduce.Or, x, func(a, b bool) bool { return a || b }, func(r bool) { *dst = r })
}

// Reduce is the generic global operation: combine must be associative
// and commutative, and every process receives the combined value.  It
// admits arbitrary element types (structs for argmax-style reductions);
// under the Atomic strategy custom operations fall back to PrivateSlots.
func Reduce[T any](p *Proc, x T, combine func(T, T) T) T {
	return reduceVia(p, reduce.Custom, x, combine, nil)
}

// ReduceSection is Reduce with a reduction section: section runs exactly
// once, in the process that completes the combination, with every other
// process still suspended — the barrier-section position.  Use it to act
// on the combined value (store it in shared state, swap the pivot row)
// race-free before the force proceeds.
func ReduceSection[T any](p *Proc, x T, combine func(T, T) T, section func(T)) T {
	return reduceVia(p, reduce.Custom, x, combine, section)
}

// GnumBarrier is the numeric global reduction under op (reduce.Sum, Prod,
// Max or Min) that a Barrier statement rides: section runs exactly once,
// with the combined value, in the process that completes the combination
// and before any process is released — the barrier's section and the
// single store of a shared target, in the reduction's own episode.
func GnumBarrier[T Number](p *Proc, op reduce.Op, x T, section func(T)) T {
	var combine func(a, b T) T
	switch op {
	case reduce.Sum:
		combine = func(a, b T) T { return a + b }
	case reduce.Prod:
		combine = func(a, b T) T { return a * b }
	case reduce.Max:
		combine = maxOf[T]
	case reduce.Min:
		combine = minOf[T]
	default:
		panic(fmt.Sprintf("core: GnumBarrier does not serve op %v", op))
	}
	return reduceBarrier(p, op, x, combine, section)
}

// GlogBarrier is GnumBarrier for the logical operators reduce.And and
// reduce.Or.
func GlogBarrier(p *Proc, op reduce.Op, x bool, section func(bool)) bool {
	combine := func(a, b bool) bool { return a && b }
	if op == reduce.Or {
		combine = func(a, b bool) bool { return a || b }
	}
	return reduceBarrier(p, op, x, combine, section)
}

// reduceBarrier runs a reduction whose completion hook is a Barrier
// statement's section (barrierEnter).
func reduceBarrier[T any](p *Proc, op reduce.Op, x T, combine func(T, T) T, section func(T)) T {
	var fold T
	run := p.barrierEnter(func() { section(fold) })
	out := reduceVia(p, op, x, combine, func(r T) {
		fold = r
		run()
	})
	p.barrierLeave()
	return out
}

func maxOf[T Number](a, b T) T {
	if b > a {
		return b
	}
	return a
}

func minOf[T Number](a, b T) T {
	if b < a {
		return b
	}
	return a
}

// reduceVia runs one reduction construct instance: the first process to
// arrive materializes the episode for the force's strategy, every
// process contributes through it, and the completing process retires the
// construct entry (and runs the user section) before the release.
func reduceVia[T any](p *Proc, op reduce.Op, x T, combine func(T, T) T, section func(T)) T {
	f := p.f
	f.pc.Check()
	f.stats.Reductions.Add(1)
	if faultinject.Enabled() {
		// The combine wrapper exists only under an armed plan, so the
		// disabled harness costs the combining hot path nothing.  The
		// wrapped combine fires without process identity: the combining
		// process is strategy-dependent (lock holder, episode winner),
		// not the contributor.
		inner := combine
		combine = func(a, b T) T {
			faultinject.Fire(faultinject.ReduceCombine, -1, f.pc)
			return inner(a, b)
		}
	}
	seq := p.nextSeq()
	ep := f.entry(seq, func() any {
		return reduce.New[T](f.reduceK, f.np, combine, reduce.Config[T]{
			Lock:   f.profile.LockFactory(),
			Poison: f.pc,
			OnComplete: func(r T) {
				if section != nil {
					section(r)
				}
				f.dropEntry(seq)
			},
		})
	}).(reduce.Episode[T])
	f.tr.Record(p.id, trace.ReduceEnter, op.String(), int64(seq))
	faultinject.Fire(faultinject.ReduceContrib, p.id, f.pc)
	p.enterSite(&siteReduce)
	out := ep.Do(p.id, x)
	p.leaveSite()
	f.tr.Record(p.id, trace.ReduceLeave, op.String(), int64(seq))
	return out
}
