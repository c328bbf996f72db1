package core

import (
	"math"

	"repro/internal/reduce"
)

// Global reductions: the G* operations combine one contribution from
// every process of the force and hand the combined value back to all of
// them — a collective construct with the same exit guarantee as a DOALL's
// implicit barrier (no process proceeds before the combination is
// complete).  Every one of them is a use of the force's one closing
// collective (Proc.collective, fused.go) with no open DOALL in front of
// it; the strategy selected per force (Variants.Reduce) is decided there.
// The six operators travel bit-encoded, as the back ends' FusedJoin
// contributions do; a custom combine travels boxed.
//
// Like NewAsync, the generic entry points are free functions taking the
// *Proc because Go methods cannot introduce type parameters.

// Number constrains the element types of the numeric global operations.
type Number interface {
	~int | ~int64 | ~float64
}

// Gsum returns the global sum of every process's contribution.
func Gsum[T Number](p *Proc, x T) T { return reduceNum(p, reduce.Sum, x) }

// Gprod returns the global product of every process's contribution.
func Gprod[T Number](p *Proc, x T) T { return reduceNum(p, reduce.Prod, x) }

// Gmax returns the global maximum of every process's contribution.
func Gmax[T Number](p *Proc, x T) T { return reduceNum(p, reduce.Max, x) }

// Gmin returns the global minimum of every process's contribution.
func Gmin[T Number](p *Proc, x T) T { return reduceNum(p, reduce.Min, x) }

// Gand returns the global conjunction of every process's contribution.
func Gand(p *Proc, x bool) bool { return reduceBool(p, reduce.And, x) }

// Gor returns the global disjunction of every process's contribution.
func Gor(p *Proc, x bool) bool { return reduceBool(p, reduce.Or, x) }

// Reduce is the generic global operation: combine must be associative
// and commutative, and every process receives the combined value.  It
// admits arbitrary element types (structs for argmax-style reductions).
func Reduce[T any](p *Proc, x T, combine func(T, T) T) T {
	return ReduceSection(p, x, combine, nil)
}

// ReduceSection is Reduce with a reduction section: section runs exactly
// once, in the process that completes the combination, with every other
// process still suspended — the barrier-section position.  Use it to act
// on the combined value (store it in shared state, swap the pivot row)
// race-free before the force proceeds.
func ReduceSection[T any](p *Proc, x T, combine func(T, T) T, section func(T)) T {
	var hook func(any)
	if section != nil {
		hook = func(fold any) { section(fold.(T)) }
	}
	boxed := func(a, b any) any { return combine(a.(T), b.(T)) }
	return p.collective(&use{reduces: true, op: reduce.Custom, x: word{box: x}, custom: boxed, hook: hook}).box.(T)
}

// reduceNum bit-encodes a numeric contribution in its own arithmetic: an
// integer type as int64, a floating-point one as float64.
func reduceNum[T Number](p *Proc, op reduce.Op, x T) T {
	if T(1)/2 != 0 { // only a floating-point T keeps the half
		w := word{bits: math.Float64bits(float64(x))}
		return T(math.Float64frombits(p.collective(&use{reduces: true, op: op, kind: reduce.NumReal, x: w}).bits))
	}
	w := word{bits: uint64(int64(x))}
	return T(int64(p.collective(&use{reduces: true, op: op, kind: reduce.NumInt, x: w}).bits))
}

// reduceBool carries a logical contribution as the word 0 or 1.
func reduceBool(p *Proc, op reduce.Op, x bool) bool {
	var w word
	if x {
		w.bits = 1
	}
	return p.collective(&use{reduces: true, op: op, kind: reduce.NumInt, x: w}).bits != 0
}
