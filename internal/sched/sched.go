// Package sched implements the Force's work-distribution mechanisms for
// DOALL loops (paper §3.3, §4.2).
//
// The paper distinguishes two scheduling disciplines:
//
//   - prescheduled: indices are distributed at compile time as a pure
//     function of the process id and the number of processes — "completely
//     machine independent, since only the number of executing processes is
//     needed to distribute the index values among processes";
//   - selfscheduled: a shared loop index, protected by a lock, is advanced
//     at run time by processes looking for more work — the paper's
//     expansion listing shows the lock(LOOP100)/K = K_shared/unlock
//     protocol exactly.
//
// This package provides both, plus the three refinements the runtime's
// defaults and applications select (the block deal, fetch-and-add and
// fixed-size chunks).  The two prescheduled deals are pure functions of
// (pid, np, n) — BlockSpan and CyclicSpan, no object, no shared state;
// the three selfscheduled disciplines share one reusable state, Loop, whose
// claims advance by a grant the caller chooses (1 is the paper's one
// iteration per acquisition).  Iteration spaces are Fortran DO ranges (Start,
// Last, Incr with either sign); deals and loops hand out *ordinals*
// 0..Count()-1 and Range maps ordinals back to index values, which keeps
// every discipline correct for negative strides and empty loops.
package sched

import (
	"fmt"
	"sync/atomic"

	"repro/internal/lock"
)

// Range describes a Fortran-style loop header: DO I = Start, Last, Incr.
// Incr must be non-zero.  The range is empty when the start already lies
// beyond the limit in the direction of travel, matching Fortran trip-count
// semantics.
type Range struct {
	Start, Last, Incr int
}

// Seq returns the unit-stride range [0, n).
func Seq(n int) Range { return Range{Start: 0, Last: n - 1, Incr: 1} }

// Count returns the trip count of the range.
func (r Range) Count() int {
	if r.Incr == 0 {
		panic("sched: Range with zero increment")
	}
	var span int
	if r.Incr > 0 {
		span = r.Last - r.Start
	} else {
		span = r.Start - r.Last
	}
	if span < 0 {
		return 0
	}
	step := r.Incr
	if step < 0 {
		step = -step
	}
	return span/step + 1
}

// Index maps an ordinal k in [0, Count()) to its index value.
func (r Range) Index(k int) int { return r.Start + k*r.Incr }

// String renders the range as a loop header fragment.
func (r Range) String() string {
	return fmt.Sprintf("%d, %d, %d", r.Start, r.Last, r.Incr)
}

// Kind names a scheduling discipline; each constant says which rule of
// README's "Which variants exist" keeps it.
type Kind int

const (
	// PreschedBlock splits the ordinal space into np contiguous blocks,
	// block p going to process p.  Kept by rule (b): internal/plan deals
	// every mapping-insensitive Presched DO this way by default.
	PreschedBlock Kind = iota
	// PreschedCyclic deals ordinals round-robin: process p executes
	// ordinals p, p+np, p+2np, ... — the distribution the paper's
	// prescheduled DO loop uses.  Kept by rule (a).
	PreschedCyclic
	// SelfLock is the paper's selfscheduled loop: a shared index guarded
	// by a loop lock, one iteration per acquisition.  Kept by rule (a).
	SelfLock
	// SelfAtomic replaces the lock with a fetch-and-add (what a machine
	// with hardware atomic add would do).  Kept by rule (b): forcemark's
	// runtime-apps workload runs matmul under it.
	SelfAtomic
	// Chunk is selfscheduling with a fixed chunk size > 1, trading load
	// balance for lower acquisition traffic.  Kept by rule (b):
	// internal/apps' gauss and histogram and forcemark's nbody select it.
	Chunk
)

var kindNames = map[Kind]string{
	PreschedBlock:  "presched-block",
	PreschedCyclic: "presched-cyclic",
	SelfLock:       "selfsched-lock",
	SelfAtomic:     "selfsched-atomic",
	Chunk:          "selfsched-chunk",
}

// String returns the discipline's short name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("sched.Kind(%d)", int(k))
}

// ParseKind converts a short name into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown kind %q (kinds: %v)", s, Kinds())
}

// ParseSelfschedKind is ParseKind restricted to the run-time
// (selfscheduled) disciplines — the valid arguments of a -selfsched
// flag.  The prescheduled kinds are rejected rather than accepted:
// PreschedBlock is Kind zero, which the interp and codegen configs
// treat as "unset", so letting it through would silently select the
// default instead of erroring.
func ParseSelfschedKind(s string) (Kind, error) {
	k, err := ParseKind(s)
	if err != nil || k == PreschedBlock || k == PreschedCyclic {
		return 0, fmt.Errorf("sched: %q is not a selfscheduled discipline (selfscheduled ones: %s, %s, %s)",
			s, SelfLock, SelfAtomic, Chunk)
	}
	return k, nil
}

// Kinds lists all disciplines in presentation order.
func Kinds() []Kind {
	return []Kind{PreschedBlock, PreschedCyclic, SelfLock, SelfAtomic, Chunk}
}

// DefaultChunk is the least span size of the Chunk discipline: a claim
// takes the larger of it and the planner's grant.
const DefaultChunk = 16

// Config carries the parameters a discipline may need.
type Config struct {
	// LockFactory supplies the loop lock for SelfLock; nil defaults to
	// system locks.  This is the machine-dependent hook: the
	// paper's selfsched macro "will call generic machine dependent macros
	// for the declaration of shared variables and for synchronization".
	LockFactory func() lock.Lock
}

// Loop is the shared state of one selfscheduled loop execution: the
// paper's K_shared behind the loop lock (SelfLock), or a fetch-and-add
// cursor (SelfAtomic, Chunk).  A Loop is reusable — Arm prepares it for
// the next execution, keeping the loop lock — so a force holds a few of
// them instead of allocating one per construct instance.  Arm must
// happen before, and must not overlap, the Next calls of the execution
// it arms; Next is safe for concurrent use.
type Loop struct {
	n       int
	step    int       // ordinals one claim takes
	useLock bool      // SelfLock: kShare behind lock; otherwise next
	lock    lock.Lock // created by the first SelfLock Arm, then kept
	kShare  int       // next ordinal to hand out; guarded by lock
	next    atomic.Int64
}

// Arm prepares the loop for one execution of n ordinals under the
// selfscheduled discipline k.  grant is how many ordinals one claim
// takes (values below 1 mean 1): the paper's discipline advances the
// shared index by it under the loop lock, the fetch-and-add by it, and
// Chunk by the larger of it and DefaultChunk.  Any other kind is
// rejected by name: the prescheduled ones have no shared state — they
// are the pure deals BlockSpan and CyclicSpan.
func (l *Loop) Arm(k Kind, n, grant int, cfg Config) {
	step := max(grant, 1)
	switch k {
	case SelfLock:
		if l.lock == nil {
			f := cfg.LockFactory
			if f == nil {
				f = lock.Factory(lock.System)
			}
			l.lock = f()
		}
		l.kShare = 0
	case SelfAtomic:
	case Chunk:
		step = max(step, DefaultChunk)
	default:
		panic(fmt.Sprintf("sched: %v is not a run-time discipline (the prescheduled deals are BlockSpan and CyclicSpan)", k))
	}
	l.n, l.step, l.useLock = n, step, k == SelfLock
	l.next.Store(0)
}

// Next claims the next span of the armed execution: the half-open
// ordinal interval [lo, hi), or ok == false when the work is exhausted.
// Under SelfLock it is the expansion listing's
//
//	lock(LOOP100); K = K_shared; K_shared = K + INCR; unlock(LOOP100)
//
// on ordinals, INCR being the grant.
func (l *Loop) Next() (lo, hi int, ok bool) {
	if l.useLock {
		l.lock.Lock()
		lo = l.kShare
		l.kShare = lo + l.step
		l.lock.Unlock()
	} else {
		lo = int(l.next.Add(int64(l.step))) - l.step
	}
	if lo >= l.n {
		return 0, 0, false
	}
	return lo, min(lo+l.step, l.n), true
}

// BlockSpan is the block deal: the contiguous ordinals [lo, hi) of 0..n-1
// that process pid of np owns, the remainder spread one-per-process over
// the first n%np processes so block sizes differ by at most one.  An
// empty block has lo == hi.
func BlockSpan(pid, np, n int) (lo, hi int) {
	checkPid(pid, np)
	base, rem := n/np, n%np
	lo = pid*base + min(pid, rem)
	hi = lo + base
	if pid < rem {
		hi++
	}
	return lo, hi
}

// CyclicSpan is the cyclic deal, the paper's prescheduled DO: process pid
// of np owns the ordinals pid, pid+np, pid+2np, ... of 0..n-1, one strided
// span [lo, hi) — empty (lo >= hi) when pid >= n.
func CyclicSpan(pid, np, n int) (lo, hi, stride int) {
	checkPid(pid, np)
	return pid, n, np
}

func checkPid(pid, np int) {
	if pid < 0 || pid >= np {
		panic(fmt.Sprintf("sched: pid %d out of range [0,%d)", pid, np))
	}
}

// CyclicLast is the last ordinal of 0..n-1 the cyclic deal hands process
// pid (< n) of np.  A block-dealt span loop leaves the loop variable at
// that ordinal's index, so its value after the loop is
// partition-independent.
func CyclicLast(pid, np, n int) int { return pid + (n-1-pid)/np*np }
