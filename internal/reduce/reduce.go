// Package reduce holds what the Force's global reductions are made of:
// the strategy names, the operators, the fold of two bit-encoded
// contributions, and the ONE rendezvous every closing collective of the
// runtime meets at.
//
// The paper's programs express a global reduction with the only tools the
// 1989 language had: a shared accumulator updated inside a named critical
// section, closed by a barrier whose section acts on the result.  Modern
// runtimes (Cilk reducers, Charm++ contribute-style reductions) make the
// reduction itself the primitive.  Both are strategies of one collective,
// decided in one place (internal/core, fused.go):
//
//   - PrivateSlots, the default, is the Join below: every process stores
//     its contribution in its own padded, force-owned slot and arrives;
//     the last arrival, alone, folds the slots in pid order — so even a
//     floating-point reduction reproduces bit-identically for a fixed
//     np — runs the completion hook and releases the others;
//   - Critical is the paper's idiom spelled over the force's own
//     primitives: fold into a force-owned accumulator under one machine
//     lock, close on the force's barrier, whose section publishes the
//     value and runs the hook.  Contributions meet in arrival order.
//
// A reduction is also a full synchronization point, like the implicit
// barrier closing a DOALL: no process returns before the combination is
// complete.  The combining function must be associative and commutative.
package reduce

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/poison"
)

// Kind names a reduction strategy.  The zero value is PrivateSlots, the
// default the runtime uses.  Each constant says which rule of README's
// "Which variants exist" keeps it.
type Kind int

const (
	// PrivateSlots gives every process its own padded slot; the last
	// process to arrive at the force's Join folds the slots in pid order
	// and publishes the result.  Contention-free contribution,
	// deterministic combination order.  Kept by rule (b): it is the
	// default every tier runs.
	PrivateSlots Kind = iota
	// Critical is the paper's baseline: contributions fold into one
	// shared accumulator under a machine lock, and the construct closes
	// on the force's barrier (section included) — the
	// critical-section-plus-barrier idiom every 1989 Force program
	// hand-rolled.  Kept by rule (a): the paper describes it.
	Critical
)

var kindNames = map[Kind]string{
	Critical:     "critical",
	PrivateSlots: "slots",
}

// String returns the strategy's short name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("reduce.Kind(%d)", int(k))
}

// ParseKind converts a short name into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("reduce: unknown kind %q (kinds: %v)", s, Kinds())
}

// Kinds lists the strategies in presentation order (baseline first).
func Kinds() []Kind { return []Kind{Critical, PrivateSlots} }

// Op names the combining operator of a global reduction.  The named
// operators give trace events a stable label; Custom covers
// user-supplied combiners.
type Op int

// The global operators of the Force dialect (GSUM, GPROD, GMAX, GMIN,
// GAND, GOR) plus Custom for arbitrary combine functions.
const (
	Sum Op = iota
	Prod
	Max
	Min
	And
	Or
	Custom
)

var opNames = map[Op]string{
	Sum: "sum", Prod: "prod", Max: "max", Min: "min", And: "and", Or: "or", Custom: "custom",
}

// String returns the operator's short name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("reduce.Op(%d)", int(o))
}

// NumKind says how a bit-encoded contribution is interpreted: values
// travel as uint64 bit patterns so one slot type serves every element
// type without boxing.
type NumKind int

const (
	// NumInt: bits are int64 (two's complement conversion); a LOGICAL
	// contribution is the word 0 or 1.
	NumInt NumKind = iota
	// NumReal: bits are float64 (math.Float64bits).
	NumReal
)

// CombineNum folds two bit-encoded contributions under op.  Max and Min
// keep the second operand only when it is strictly greater / less, so an
// extremum is one of the contributions bit for bit; And and Or are
// defined on the NumInt words 0 and 1.
func CombineNum(op Op, k NumKind, a, b uint64) uint64 {
	if k == NumReal {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch op {
		case Sum:
			x += y
		case Prod:
			x *= y
		case Max:
			if y > x {
				x = y
			}
		case Min:
			if y < x {
				x = y
			}
		default:
			panic(fmt.Sprintf("reduce: CombineNum does not serve REAL %v", op))
		}
		return math.Float64bits(x)
	}
	x, y := int64(a), int64(b)
	switch op {
	case Sum:
		x += y
	case Prod:
		x *= y
	case Max:
		if y > x {
			x = y
		}
	case Min:
		if y < x {
			x = y
		}
	case And:
		x &= y
	case Or:
		x |= y
	default:
		panic(fmt.Sprintf("reduce: CombineNum does not serve op %v", op))
	}
	return uint64(x)
}

// Join is the reusable rendezvous of a fixed np processes: every process
// arrives once per use, the last arrival runs alone — the barrier-section
// position, where the caller folds what the others left in its own slots
// and runs its completion hook — and then releases the others; the last
// process to leave rearms the Join.  One use, in every process:
//
//	if j.Arrive() {
//		... alone: every other process is suspended in Wait ...
//		j.Release()
//	} else {
//		j.Wait()
//	}
//
// A pair of Joins alternated per use serves any number of collectives
// with zero steady-state allocation, on the invariant sense-reversing
// barriers rely on: a process can only reach its (k+2)-th use after every
// process has left its k-th.  What a use publishes (the fold) lives with
// the caller, one per Join of the pair, and stays readable until the next
// use of the same Join completes.
//
// Waiting is spin-then-park: the shared wait policy's spin phases
// (poison.Spin) catch the common fast path under real parallelism, after
// which the waiter parks — on an oversubscribed machine (more processes
// than CPUs, the 1989 normality and the CI box's too) parked waiters
// leave the scheduler to the processes that still owe their arrival.  The
// park channel is created lazily, only when a waiter outlives the spin
// window; at np=1, or when the last arrival wins the race, a use touches
// no channel at all.  A parked waiter also selects on the poison cell's
// wake channel, so a use whose missing process died unwinds with
// poison.Abort instead of parking forever.
type Join struct {
	np       int
	arrived  atomic.Int64
	departed atomic.Int64
	done     atomic.Uint32
	ch       atomic.Pointer[chan struct{}]
	pc       *poison.Cell
}

// NewJoin builds a rendezvous for np processes.  pc, when non-nil, is the
// force's poison cell.
func NewJoin(np int, pc *poison.Cell) *Join {
	if np <= 0 {
		panic(fmt.Sprintf("reduce: np = %d, need np >= 1", np))
	}
	return &Join{np: np, pc: pc}
}

// Arrive counts the caller in and reports whether it is the last of the
// np arrivals of this use: the one that runs alone until it calls Release.
// Everything a process wrote before arriving is visible to the last
// arrival.
func (j *Join) Arrive() bool { return j.arrived.Add(1) == int64(j.np) }

// Release ends the last arrival's time alone: every waiter of this use
// returns from Wait, seeing what the caller wrote before releasing.
func (j *Join) Release() {
	j.done.Store(1)
	if chp := j.ch.Load(); chp != nil {
		close(*chp)
	}
	j.depart()
}

// Wait suspends a process that is not the last arrival until Release.
func (j *Join) Wait() {
	faultinject.Fire(faultinject.ReduceRelease, -1, j.pc)
	if !poison.Spin(j.pc, func() bool { return j.done.Load() == 1 }) {
		j.park()
	}
	j.depart()
}

// park waits out a use the spin window did not catch, on a lazily
// installed release channel with the poison cell's wake channel as the
// unwind path.
func (j *Join) park() {
	chp := j.ch.Load()
	if chp == nil {
		nc := make(chan struct{})
		if j.ch.CompareAndSwap(nil, &nc) {
			chp = &nc
		} else {
			chp = j.ch.Load()
		}
	}
	// Re-check after installing the channel: Release loads the channel
	// pointer after storing done, so either it saw our install (and will
	// close it) or this load sees done == 1.
	if j.done.Load() == 1 {
		return
	}
	select {
	case <-*chp:
	case <-j.pc.Done(): // nil channel (never ready) when no poison is wired
		if j.done.Load() != 1 {
			j.pc.Check()
		}
	}
}

// depart counts the caller out; the last one out rearms the Join.  The
// alternation invariant (no process re-enters before every process has
// left) orders the rearm before any later Arrive.
func (j *Join) depart() {
	if j.departed.Add(1) == int64(j.np) {
		j.arrived.Store(0)
		j.done.Store(0)
		j.ch.Store(nil)
		j.departed.Store(0)
	}
}
