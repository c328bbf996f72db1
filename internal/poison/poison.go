// Package poison implements the Force runtime's fault-containment
// protocol: a per-run cancellation cell that every blocking primitive of
// the runtime observes.
//
// The 1989 system had nothing here — "a process which panics while its
// peers are inside a barrier leaves them blocked, exactly as an aborted
// process did on the 1989 machines" was this repository's documented
// behaviour through PR 3, and it is disqualifying for a runtime that has
// to run unattended: a single non-uniform runtime error turned into a
// whole-force hang (or, under Go's all-asleep detector, a raw goroutine
// dump).  Modern many-task runtimes treat fault propagation as a
// first-class runtime service; this package is that service for the
// Force.
//
// The protocol has three parts:
//
//   - Cell: an atomic poison flag plus a first-failure slot.  The first
//     process to fail records its panic value and poisons the cell
//     (later failures lose the race and are dropped — the force reports
//     the *first* failure, as the single-process path always did).
//     Poisoning closes a broadcast channel, so primitives parked on
//     channels wake.
//   - Abort: the distinguished panic value blocked peers unwind with
//     when they observe poison.  The engine recovers Abort at the job
//     boundary and discards it — the original failure is in the cell.
//   - Wait: the shared bounded spin-then-park wait policy.  Every
//     spinning primitive of the runtime (barrier release waits, reduce
//     episode waits, asynchronous-variable transfers, lock acquisition
//     inside condition-encoding constructs, an idle Askfor taker) waits
//     through it, so a waiter observes poison within one park interval,
//     an oversubscribed waiter stops pinning a core instead of spinning
//     unboundedly, and a waiter that has a CPU of its own neither enters
//     the scheduler for a release that is nanoseconds away nor oversleeps
//     one that is microseconds away.
//
// A nil *Cell is valid everywhere and means "no poison wired": Poisoned
// reports false, Check is a no-op, and Wait degenerates to the plain
// spin-then-park policy.  That keeps the primitives usable standalone
// (unit tests, benchmarks) without a runtime above them.
package poison

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	_ "unsafe" // go:linkname relax
)

// Abort is the distinguished panic value a process unwinds with after
// observing that its force was poisoned.  It is not an error in itself:
// the failure that poisoned the force travels in the Cell, and the
// engine's job boundary recovers and discards Abort panics.
type Abort struct {
	// Err describes the first failure, for debugging an Abort that
	// escapes the runtime (it never should).
	Err error
}

func (a Abort) String() string {
	return fmt.Sprintf("poison.Abort(force aborted by: %v)", a.Err)
}

// AsError converts a recovered panic value into an error: errors pass
// through, anything else is wrapped.
func AsError(v any) error {
	switch e := v.(type) {
	case nil:
		return nil
	case error:
		return e
	default:
		return fmt.Errorf("panic: %v", v)
	}
}

// Cause classifies WHY a cell was poisoned.  The distinction matters at
// the Run boundary: an internal failure (a process panicked) re-panics
// out of Run, while an external cancellation (a context's cancel or
// deadline) is an expected, service-shaped outcome that
// core.Force.RunContext returns as an error.
type Cause int

const (
	// CauseNone: the cell is not poisoned.
	CauseNone Cause = iota
	// CauseFailure: a process of the force panicked (the PR-4 protocol's
	// original, and only, cause).
	CauseFailure
	// CauseExternal: something OUTSIDE the force asked it to stop — a
	// context's cancellation or deadline, which forcerun -timeout
	// drives.  The poison value is the cancellation error
	// (context.Canceled, context.DeadlineExceeded).
	CauseExternal
)

// String returns the cause's short name.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseFailure:
		return "failure"
	case CauseExternal:
		return "external"
	default:
		return fmt.Sprintf("poison.Cause(%d)", int(c))
	}
}

// Cell is the cancellation cell of one force: an atomic poison flag and
// the first failure's panic value, tagged with its Cause.  A Cell is
// created once per force and rearmed (Reset) between runs, so
// primitives bind to it once.
//
// All methods are safe on a nil *Cell, which behaves as a cell that is
// never poisoned.
type Cell struct {
	flag atomic.Bool
	// timed enables the wait policy's relaxed and time-bounded spins
	// (SetProcs).
	timed bool
	// crowd counts the waits that still skip the relaxed spin after a
	// waiter found its P shared (timedYield).
	crowd atomic.Int32

	mu    sync.Mutex
	val   any
	cause Cause
	ch    chan struct{}
}

// NewCell returns an armed, unpoisoned cell.
func NewCell() *Cell {
	return &Cell{ch: make(chan struct{})}
}

// SetProcs tells the cell how many processes wait through it, which
// decides one thing: whether a waiter may spend the two phases of the
// wait policy that keep it on its CPU, the relaxed spin and the timed
// spin (see Wait).  It may only while every process can own a CPU —
// np <= GOMAXPROCS, and more than one CPU at all — because a spinning
// waiter on an oversubscribed force burns the time slice of the peer it
// is waiting for.  core.New calls it once; it must not race with waits.
//
// A force is born crowded: its processes were started back to back by one
// goroutine and begin on that goroutine's P, so the first crowdSkip waits
// skip the relaxed spin and the next one probes (see timedYield) — which
// is all the waits a short script ever makes.
func (c *Cell) SetProcs(np int) {
	if c != nil {
		gmp := runtime.GOMAXPROCS(0)
		c.timed = gmp > 1 && np <= gmp
		c.crowd.Store(crowdSkip)
	}
}

// TimedSpin reports whether waits on the cell take the relaxed spin and
// the timed spin.
func (c *Cell) TimedSpin() bool { return c != nil && c.timed }

// crowded reports whether waits on the cell currently skip the relaxed
// spin, and counts this wait toward the next probe.  The count is
// approximate: waiters race on it, and losing a decrement only delays the
// probe by a wait.
func (c *Cell) crowded() bool {
	n := c.crowd.Load()
	if n > 0 {
		c.crowd.Store(n - 1)
	}
	return n > 0
}

// timedYield is the first yield of a wait whose relaxed spin ran out.  A
// yield that takes as long as a relaxed spin means another goroutine ran
// on this waiter's P meanwhile — a peer it shares the P with, which cannot
// have released it while it was relaxing — so the next crowdSkip waits on
// the cell go straight to the yielding phases.
func (c *Cell) timedYield() {
	t := clock()
	runtime.Gosched()
	if clock()-t > crowdYield {
		c.crowd.Store(crowdSkip)
	}
}

// Poison records v as the force's first failure (CauseFailure) and
// broadcasts: the wake channel closes.  Only the first call wins; Poison
// reports whether this call was it.  Poisoning a nil cell reports false.
func (c *Cell) Poison(v any) bool { return c.PoisonCause(v, CauseFailure) }

// PoisonExternal poisons the cell with an external cancellation: err is
// recorded as the poison value under CauseExternal.  Context wiring
// (core.Force.RunContext) uses it; the Run boundary returns external
// poisons as errors instead of re-panicking them.
func (c *Cell) PoisonExternal(err error) bool { return c.PoisonCause(err, CauseExternal) }

// PoisonCause is Poison with an explicit cause.  First caller wins,
// whatever its cause — the force reports its FIRST termination reason.
func (c *Cell) PoisonCause(v any, cause Cause) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	if c.flag.Load() {
		c.mu.Unlock()
		return false
	}
	c.val = v
	c.cause = cause
	c.flag.Store(true)
	close(c.ch)
	c.mu.Unlock()
	return true
}

// Poisoned reports whether the cell is poisoned.  Lock-free; this is the
// check on every hot wait path.
func (c *Cell) Poisoned() bool {
	return c != nil && c.flag.Load()
}

// Value returns the first failure's panic value (nil when unpoisoned).
func (c *Cell) Value() any {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Cause returns why the cell was poisoned (CauseNone when unpoisoned).
func (c *Cell) Cause() Cause {
	if c == nil {
		return CauseNone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Err returns the first failure as an error (nil when unpoisoned).
func (c *Cell) Err() error {
	if !c.Poisoned() {
		return nil
	}
	return AsError(c.Value())
}

// Done returns the wake channel: closed when the cell is poisoned,
// recreated by Reset.  A nil cell returns a nil channel (blocks forever
// in a select — the correct degenerate behaviour).
func (c *Cell) Done() <-chan struct{} {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ch := c.ch
	c.mu.Unlock()
	return ch
}

// Check panics with Abort if the cell is poisoned; otherwise (and on a
// nil cell) it is a single atomic load.
func (c *Cell) Check() {
	if c.Poisoned() {
		panic(Abort{Err: c.Err()})
	}
}

// Reset rearms a poisoned cell for the next run: the failure slot
// clears and a fresh wake channel is installed.  Reset must only be
// called while no process can block on the cell (between runs).  A no-op on an unpoisoned or nil cell.
func (c *Cell) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.flag.Load() {
		c.val = nil
		c.cause = CauseNone
		c.ch = make(chan struct{})
		c.flag.Store(false)
	}
	c.mu.Unlock()
}

// The shared wait policy has four phases.
//
// First, and only while the force is not oversubscribed (Cell.SetProcs:
// np <= GOMAXPROCS), a *relaxed* spin: relaxPolls polls separated by a CPU
// relax (PAUSE on amd64, YIELD on arm64), about 3 µs in all.  A waiter
// that owns a CPU and whose release is a few hundred nanoseconds away —
// the next stage of a pipeline, the other half of a ping-pong — must not
// enter the Go scheduler at all: a Gosched is ~1 µs of scheduler lock and
// run-queue work the releaser then waits out, and a poll without the
// relax keeps requesting the very cache line the releaser is about to
// store to.
//
// Then a bounded yield-spiced spin (spinBudget iterations, a few
// microseconds) catches releases already in flight.  The yields stay, and
// stay this early, because np <= GOMAXPROCS does not mean every process
// is on a CPU *now*: the peer a waiter waits for may sit in the run queue
// of the waiter's own P until the waiter yields — always on a cold force,
// and for as long as two processes that yield every few microseconds keep
// finding each other there (the thief that would separate them takes
// longer to wake than their turns last).  A policy that only ever pauses
// turns every first rendezvous of a short program into a wait for the
// scheduler's preemption tick (forcemark script-cold npN_cost_p50 read
// +31 % without the yields).  And a relaxed spin on a shared P is pure
// loss — the peer cannot run while its waiter relaxes — so the first
// yield of a wait whose relaxed spin ran out is timed (timedYield): when
// it took as long as a peer's turn, the next crowdSkip waits on the cell
// skip the relaxed spin, and the one after them probes again.  Without
// that, up to one cold pipeline-ring run in sixty spent all its 19 200
// handoffs at 3.9 µs each (75 ms against a median of 4); with it the
// slowest of 1 200 took 14 ms, which is what every run took through
// PR 25.
//
// Then, again only while not oversubscribed, a *time-bounded* spin of
// about one park/wake round trip: a parked waiter costs its releaser's
// critical path a full wake — on the 2-vCPU reference box
// time.Sleep(5µs) returns after 160–390 µs inside a running force — which
// is longer than the whole imbalance between two halves of a DOALL, so
// parking there serialises them.  Spinning for one such interval first is
// the classic competitive bound: it at most doubles the cost of a wait
// that parks anyway.
//
// Last, the sleep ladder — on an oversubscribed machine (more processes
// than CPUs, the 1989 normality and the 1-core CI box's too) parked
// waiters leave the scheduler to the processes that still owe progress
// instead of cycling through the run queue.
//
// Poison is checked every iteration of all three spins and once per park
// interval, so a poisoned waiter unwinds immediately while spinning and
// within one park interval otherwise.
const (
	relaxPolls  = 24
	relaxCycles = 8                      // relax instructions between two polls: ~125 ns
	crowdYield  = 1500 * time.Nanosecond // a yield this long ran somebody else: half a relaxed spin
	crowdSkip   = 64                     // waits between two probes of a shared P
	spinBudget  = 256
	yieldEvery  = 8
	spinWindow  = 200 * time.Microsecond
	parkFloor   = 5 * time.Microsecond
	parkCeil    = 200 * time.Microsecond
	relayCeil   = 20 * time.Microsecond
)

// relax executes cycles CPU relax instructions: the runtime's own
// spin-wait primitive (PAUSE / YIELD / the architecture's equivalent, a
// plain delay loop where there is none), which the runtime keeps
// linkable for exactly this use.
//
//go:linkname relax runtime.procyield
func relax(cycles uint32)

// clock reads the monotonic time the timed spin is bounded by; tests
// replace it to count or steer the reads.
var clock = func() time.Duration { return time.Since(clockBase) }

var clockBase = time.Now()

// Wait blocks until pred reports true, spinning briefly and then
// parking, and panics with Abort if c is poisoned first.  pred must be
// side-effect-free until it returns true (it is re-evaluated
// arbitrarily often); a pred that acquires a resource on success (a
// TryLock) is fine, because Wait returns immediately on the first true.
func Wait(c *Cell, pred func() bool) { waitCeil(c, pred, parkCeil) }

// WaitRelay is Wait with a much shorter park ceiling, for waits whose
// release is a sequential handoff (the two-lock barrier's BARWOT
// relay, an asynchronous variable's E/F pair): each hop of a relay
// chain pays the waiter's current park interval as wake latency, so a
// long park would multiply down the whole chain.
func WaitRelay(c *Cell, pred func() bool) { waitCeil(c, pred, relayCeil) }

// Spin runs the policy's spin phases alone and reports whether pred
// came true within them.  Primitives that park on something better than
// a sleep (a release channel) spin through it first, so one policy
// decides how long any waiter of the runtime stays on its CPU.
func Spin(c *Cell, pred func() bool) bool {
	relaxed := c.TimedSpin() && !c.crowded()
	if relaxed {
		for i := 0; i < relaxPolls; i++ {
			if pred() {
				return true
			}
			c.Check()
			relax(relaxCycles)
		}
	}
	for i := 0; i < spinBudget; i++ {
		if pred() {
			return true
		}
		c.Check()
		if i%yieldEvery == yieldEvery-1 {
			if relaxed && i == yieldEvery-1 {
				c.timedYield()
			} else {
				runtime.Gosched()
			}
		}
	}
	if !c.TimedSpin() {
		return false
	}
	for deadline := clock() + spinWindow; clock() < deadline; {
		for i := 0; i < yieldEvery; i++ {
			if pred() {
				return true
			}
			c.Check()
		}
		runtime.Gosched()
	}
	return false
}

func waitCeil(c *Cell, pred func() bool, ceil time.Duration) {
	if Spin(c, pred) {
		return
	}
	d := parkFloor
	for {
		if pred() {
			return
		}
		c.Check()
		time.Sleep(d)
		if d < ceil {
			d *= 2
		}
	}
}
