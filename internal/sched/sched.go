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
// fixed-size chunks), behind one Scheduler interface.  Iteration spaces
// are Fortran DO ranges (Start, Last, Incr with either sign); schedulers
// hand out *ordinals* 0..Count()-1 and Range maps ordinals back to index
// values, which keeps every discipline correct for negative strides and
// empty loops.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/poison"
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

// Scheduler distributes the ordinals of one loop execution across the
// force.  Next returns the half-open ordinal interval [lo, hi) that pid
// should execute next; ok is false when pid's work is exhausted.  A
// Scheduler is valid for a single loop execution (one episode).
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

// Config carries the parameters a discipline may need.
type Config struct {
	// ChunkSize applies to Chunk (default 16 when zero).
	ChunkSize int
	// LockFactory supplies the loop lock for SelfLock; nil defaults to
	// system locks.  This is the machine-dependent hook: the
	// paper's selfsched macro "will call generic machine dependent macros
	// for the declaration of shared variables and for synchronization".
	LockFactory func() lock.Lock
}

// New creates a one-episode Scheduler for the given discipline, force size
// and range.
func New(k Kind, np int, r Range, cfg Config) Scheduler {
	if np <= 0 {
		panic(fmt.Sprintf("sched: np = %d, need np >= 1", np))
	}
	n := r.Count()
	switch k {
	case PreschedBlock:
		return &blockSched{np: np, n: n, done: make([]atomic.Bool, np)}
	case PreschedCyclic:
		return &cyclicSched{np: np, n: n, cursors: make([]paddedInt, np)}
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
			c = 16
		}
		return &atomicSelfSched{n: n, chunk: c}
	default:
		panic(fmt.Sprintf("sched: unknown kind %d", int(k)))
	}
}

// blockSched: one contiguous block per process (BlockSpan).
type blockSched struct {
	np, n int
	done  []atomic.Bool
}

func (s *blockSched) Next(pid int) (int, int, bool) {
	if pid < 0 || pid >= s.np {
		panic(fmt.Sprintf("sched: pid %d out of range [0,%d)", pid, s.np))
	}
	if s.done[pid].Swap(true) {
		return 0, 0, false
	}
	lo, hi := BlockSpan(pid, s.np, s.n)
	return lo, hi, lo < hi
}

// cyclicSched deals single ordinals round-robin with no shared mutable
// state: each process advances a private cursor (cache-line padded so
// neighbouring cursors do not false-share).
type cyclicSched struct {
	np, n   int
	cursors []paddedInt
}

type paddedInt struct {
	v int
	_ [56]byte
}

func (s *cyclicSched) Next(pid int) (int, int, bool) {
	if pid < 0 || pid >= s.np {
		panic(fmt.Sprintf("sched: pid %d out of range [0,%d)", pid, s.np))
	}
	k := pid + s.cursors[pid].v*s.np
	if k >= s.n {
		return 0, 0, false
	}
	s.cursors[pid].v++
	return k, k + 1, true
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

// ForEach is a single-construct driver used by tests, benchmarks, and the
// interpreter's standalone mode: it runs body(pid, index) for every index
// of r, distributed over np goroutines under discipline k.  The core
// runtime package embeds the same loop inside long-lived force processes
// instead.
func ForEach(k Kind, np int, r Range, cfg Config, body func(pid, index int)) {
	s := New(k, np, r, cfg)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			Drive(s, pid, r, body)
		}(p)
	}
	wg.Wait()
}

// Drive exhausts scheduler s for one process, translating ordinals to
// index values of r.
func Drive(s Scheduler, pid int, r Range, body func(pid, index int)) {
	DriveWith(nil, s, pid, r, body)
}

// DriveWith is Drive under the fault-containment protocol: between work
// assignments the process checks the poison cell and unwinds with
// poison.Abort when the force has been poisoned, so a loop does not
// keep executing iterations for a run that is already dead.  A nil cell
// degrades to Drive.
func DriveWith(c *poison.Cell, s Scheduler, pid int, r Range, body func(pid, index int)) {
	for {
		c.Check()
		lo, hi, ok := s.Next(pid)
		if !ok {
			return
		}
		for k := lo; k < hi; k++ {
			body(pid, r.Index(k))
		}
	}
}

// BlockSpan is the block deal: the contiguous ordinals [lo, hi) of 0..n-1
// that process pid of np owns, the remainder spread one-per-process over
// the first n%np processes so block sizes differ by at most one.  An
// empty block has lo == hi.
func BlockSpan(pid, np, n int) (lo, hi int) {
	base, rem := n/np, n%np
	lo = pid*base + min(pid, rem)
	hi = lo + base
	if pid < rem {
		hi++
	}
	return lo, hi
}

// CyclicLast is the last ordinal of 0..n-1 the cyclic deal hands process
// pid (< n) of np.  A block-dealt span loop leaves the loop variable at
// that ordinal's index, so its value after the loop is
// partition-independent.
func CyclicLast(pid, np, n int) int { return pid + (n-1-pid)/np*np }
