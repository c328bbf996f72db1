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
// the three selfscheduled disciplines are one-episode objects behind the
// Scheduler interface.  Iteration spaces are Fortran DO ranges (Start,
// Last, Incr with either sign); deals and schedulers hand out *ordinals*
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

// Scheduler is a run-time (selfscheduled) discipline distributing the
// ordinals of one loop execution across the force.  Next returns the
// half-open ordinal interval [lo, hi) that pid should execute next; ok is
// false when the work is exhausted.  A Scheduler is valid for a single
// loop execution (one episode).
type Scheduler interface {
	Next(pid int) (lo, hi int, ok bool)
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

// kindGoNames are the Go identifiers of the kinds, for code generators
// emitting sched.<name> against this package.
var kindGoNames = map[Kind]string{
	PreschedBlock:  "PreschedBlock",
	PreschedCyclic: "PreschedCyclic",
	SelfLock:       "SelfLock",
	SelfAtomic:     "SelfAtomic",
	Chunk:          "Chunk",
}

// GoName returns the kind's Go identifier within this package, the form
// internal/codegen emits into generated programs.
func (k Kind) GoName() string {
	if s, ok := kindGoNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
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

// DefaultChunk is the span size of the Chunk discipline when
// Config.ChunkSize is left zero.
const DefaultChunk = 16

// Config carries the parameters a discipline may need.
type Config struct {
	// ChunkSize applies to Chunk (DefaultChunk when zero).
	ChunkSize int
	// LockFactory supplies the loop lock for SelfLock; nil defaults to
	// system locks.  This is the machine-dependent hook: the
	// paper's selfsched macro "will call generic machine dependent macros
	// for the declaration of shared variables and for synchronization".
	LockFactory func() lock.Lock
}

// New creates a one-episode Scheduler for a selfscheduled discipline, force
// size and range.  Any other kind is rejected by name: the prescheduled
// ones have no Scheduler — they are the pure deals BlockSpan and CyclicSpan.
func New(k Kind, np int, r Range, cfg Config) Scheduler {
	if np <= 0 {
		panic(fmt.Sprintf("sched: np = %d, need np >= 1", np))
	}
	n := r.Count()
	switch k {
	case SelfLock:
		f := cfg.LockFactory
		if f == nil {
			f = lock.Factory(lock.System)
		}
		return &lockSelfSched{n: n, lock: f()}
	case SelfAtomic:
		return &atomicSelfSched{n: n, chunk: 1}
	case Chunk:
		c := cfg.ChunkSize
		if c <= 0 {
			c = DefaultChunk
		}
		return &atomicSelfSched{n: n, chunk: c}
	default:
		panic(fmt.Sprintf("sched: %v is not a run-time discipline (the prescheduled deals are BlockSpan and CyclicSpan)", k))
	}
}

// lockSelfSched is the paper's selfscheduled loop: the shared index
// K_shared lives behind the loop lock; each acquisition takes one
// iteration.  The expansion listing's
//
//	lock(LOOP100); K = K_shared; K_shared = K + INCR; unlock(LOOP100)
//
// becomes, on ordinals, a guarded post-increment.
type lockSelfSched struct {
	n      int
	lock   lock.Lock
	kShare int // next ordinal to hand out; guarded by lock
}

func (s *lockSelfSched) Next(pid int) (int, int, bool) {
	s.lock.Lock()
	k := s.kShare
	s.kShare = k + 1
	s.lock.Unlock()
	if k >= s.n {
		return 0, 0, false
	}
	return k, k + 1, true
}

// atomicSelfSched is the fetch-and-add variant, optionally chunked.
type atomicSelfSched struct {
	n     int
	chunk int
	next  atomic.Int64
}

func (s *atomicSelfSched) Next(pid int) (int, int, bool) {
	lo := int(s.next.Add(int64(s.chunk))) - s.chunk
	if lo >= s.n {
		return 0, 0, false
	}
	hi := lo + s.chunk
	if hi > s.n {
		hi = s.n
	}
	return lo, hi, true
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
