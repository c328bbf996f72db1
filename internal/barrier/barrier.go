// Package barrier implements the Force barrier construct (paper §3.4):
// the paper's own two-lock algorithm and the central sense-reversing
// barrier, the one other algorithm of the companion comparison the paper
// cites as [AJ87] (Arenstorf & Jordan, "Comparing Barrier Algorithms")
// with a repeatable measured win on this substrate (README, "Which
// variants exist").
//
// Force barrier semantics are stronger than a plain rendezvous: at a
// barrier, all processes wait for each other; one arbitrary process is then
// allowed to execute the *barrier section*; all other processes stay
// suspended until that single process leaves the section, after which the
// whole force proceeds.  A barrier with a nil section degenerates to the
// usual rendezvous.
//
// Every implementation in this package is reusable (the same barrier object
// is used episode after episode) and guarantees that no process can enter
// episode k+1 before every process has left episode k — the property the
// paper's BARWIN/BARWOT lock pair exists to provide.
//
// # Fault containment
//
// A barrier is where a failing force wedges: a process that dies before
// arriving leaves its peers waiting forever.  Every implementation
// therefore observes an optional poison cell (SetPoison): all waits —
// the sense spin and the lock waits of the two-lock relay — go through
// the shared bounded spin-then-park policy of internal/poison, and a
// waiter that observes poison unwinds with poison.Abort instead of
// waiting out an episode that can never complete.  A poisoned barrier's internal state is unspecified; the
// runtime discards and rebuilds barriers after an aborted run.
package barrier

import (
	"fmt"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/poison"
)

// Barrier is a reusable Force barrier for a fixed number of processes.
//
// Sync blocks until all N() processes of the episode have arrived, runs
// section (if non-nil) in exactly one of them, and releases everyone only
// after the section returns.  pid must be in [0, N()) and each pid must
// participate exactly once per episode.  Within one episode every process
// must agree on whether a section is supplied (the Force's SPMD model
// guarantees this: a barrier is a single program statement).
type Barrier interface {
	Sync(pid int, section func())
	// N returns the number of participating processes.
	N() int
}

// Wait is the sectionless rendezvous: Wait(b, pid) == b.Sync(pid, nil).
func Wait(b Barrier, pid int) { b.Sync(pid, nil) }

// Poisonable is implemented by barriers that observe a poison cell: a
// Sync blocked while the cell is poisoned unwinds with poison.Abort
// instead of waiting forever.  Every algorithm in this package
// implements it.
type Poisonable interface {
	// SetPoison binds the barrier to a cell (nil unbinds).  It must not
	// be called concurrently with Sync.
	SetPoison(c *poison.Cell)
}

// SetPoison binds b to the poison cell when b supports it.
func SetPoison(b Barrier, c *poison.Cell) {
	if p, ok := b.(Poisonable); ok {
		p.SetPoison(c)
	}
}

// Kind names a barrier algorithm; each constant says which rule of
// README's "Which variants exist" keeps it.
type Kind int

const (
	// TwoLock is the paper's own algorithm: an arrival counter ZZNBAR
	// guarded by the BARWIN lock during the entry phase and by the BARWOT
	// lock during the exit phase (§4.2, Barrier and the Selfsched DO
	// expansion listing).  Kept by rule (a): the paper describes it.
	TwoLock Kind = iota
	// CentralSense is a central counter with sense reversal; arrivals
	// decrement atomically and spin on a shared sense flag.  Kept by rule
	// (c): the one other algorithm that beats TwoLock in every run at
	// every width measured (forcebench T2).
	CentralSense
)

var kindNames = map[Kind]string{
	TwoLock:      "twolock",
	CentralSense: "sense",
}

// String returns the short algorithm name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("barrier.Kind(%d)", int(k))
}

// ParseKind converts a short name into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("barrier: unknown kind %q (kinds: %v)", s, Kinds())
}

// Kinds lists all implemented algorithms in presentation order.
func Kinds() []Kind { return []Kind{TwoLock, CentralSense} }

// New constructs a barrier of the given kind for n processes.  Lock-based
// algorithms receive their locks from factory; algorithms that do not use
// locks ignore it.  A nil factory defaults to system locks.
func New(k Kind, n int, factory func() lock.Lock) Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("barrier: n = %d, need n >= 1", n))
	}
	if factory == nil {
		factory = lock.Factory(lock.System)
	}
	switch k {
	case TwoLock:
		return NewTwoLock(n, factory)
	case CentralSense:
		return NewCentralSense(n)
	default:
		panic(fmt.Sprintf("barrier: unknown kind %d", int(k)))
	}
}

// padded64 keeps a per-process counter on its own cache line so spinning
// neighbours do not false-share.
type padded64 struct {
	v uint64
	_ [56]byte
}

// TwoLockBarrier is the paper's barrier.  A shared arrival counter ZZNBAR
// is protected by two locks: BARWIN is open (unlocked) while the barrier
// fills, BARWOT while it drains; at every instant at most one of the two is
// open and ownership relays from process to process.
//
// Entry (the paper's "loop entry code"): acquire BARWIN, increment ZZNBAR;
// the last arrival keeps BARWIN closed — so no process can start the next
// episode — runs the barrier section, and opens BARWOT; every earlier
// arrival re-opens BARWIN and queues on BARWOT.
//
// Exit (the paper's "loop exit code"): acquire BARWOT, decrement ZZNBAR;
// the last to leave re-opens BARWIN for the next episode, leaving BARWOT
// closed; everyone else relays BARWOT onward.
type TwoLockBarrier struct {
	n      int
	barwin lock.Lock
	barwot lock.Lock
	zznbar int // guarded by whichever of the two locks is open
	pc     *poison.Cell
}

var _ Barrier = (*TwoLockBarrier)(nil)
var _ Poisonable = (*TwoLockBarrier)(nil)

// SetPoison binds the barrier's lock waits to the cell.  The BARWIN and
// BARWOT acquisitions are *condition* waits (ownership relays from
// process to process), so they go through lock.Acquire rather than a
// plain Lock.
func (b *TwoLockBarrier) SetPoison(c *poison.Cell) { b.pc = c }

// NewTwoLock builds the paper's two-lock barrier for n processes using
// locks from factory.
func NewTwoLock(n int, factory func() lock.Lock) *TwoLockBarrier {
	b := &TwoLockBarrier{n: n, barwin: factory(), barwot: factory()}
	// BARWOT starts closed: the barrier begins in the filling phase.
	b.barwot.Lock()
	return b
}

// N returns the number of participants.
func (b *TwoLockBarrier) N() int { return b.n }

// Sync implements the entry/section/exit protocol from the paper's
// Selfsched DO expansion listing.
func (b *TwoLockBarrier) Sync(pid int, section func()) {
	// Entry phase: report arrival under BARWIN.
	lock.Acquire(b.barwin, b.pc)
	b.zznbar++
	if b.zznbar == b.n {
		// Last arrival: every other process is queued on BARWOT (or
		// about to be).  Run the barrier section while they are
		// suspended, then open the drain.  BARWIN stays closed.
		if section != nil {
			section()
		}
		b.barwot.Unlock()
	} else {
		b.barwin.Unlock()
	}
	// Exit phase: report departure under BARWOT.
	lock.Acquire(b.barwot, b.pc)
	b.zznbar--
	if b.zznbar == 0 {
		// Last to leave re-opens the entry phase for the next
		// episode; BARWOT stays closed behind it.
		b.barwin.Unlock()
	} else {
		b.barwot.Unlock()
	}
}

// CentralSenseBarrier is the classic central-counter, sense-reversing
// barrier: arrivals decrement a shared counter; the last arrival runs the
// section, resets the counter and flips the global sense; everyone else
// spins on the sense.
type CentralSenseBarrier struct {
	n     int
	count atomic.Int64
	sense atomic.Uint64
	epoch []padded64 // per-pid episode number; entry pid only
	pc    *poison.Cell
}

var _ Barrier = (*CentralSenseBarrier)(nil)
var _ Poisonable = (*CentralSenseBarrier)(nil)

// SetPoison binds the sense wait to the cell.
func (b *CentralSenseBarrier) SetPoison(c *poison.Cell) { b.pc = c }

// NewCentralSense builds a sense-reversing central barrier for n processes.
func NewCentralSense(n int) *CentralSenseBarrier {
	b := &CentralSenseBarrier{n: n, epoch: make([]padded64, n)}
	b.count.Store(int64(n))
	return b
}

// N returns the number of participants.
func (b *CentralSenseBarrier) N() int { return b.n }

// Sync performs one sense-reversed episode.
func (b *CentralSenseBarrier) Sync(pid int, section func()) {
	b.epoch[pid].v++
	target := b.epoch[pid].v
	if b.count.Add(-1) == 0 {
		if section != nil {
			section()
		}
		b.count.Store(int64(b.n))
		b.sense.Store(target)
		return
	}
	poison.Wait(b.pc, func() bool { return b.sense.Load() == target })
}
