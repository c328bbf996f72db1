// Package lock provides the generic lock mechanisms of the Force's
// machine-dependent layer (paper §4.1.3).
//
// The Force implementation uses only four low-level lock macros —
// define_lock, init_lock, lock and unlock — and builds every higher-level
// synchronization construct on top of them.  The paper classifies the lock
// support found on its six host machines into three categories:
//
//   - software locks: spinning with test&set on shared variables
//     (Sequent, Encore)
//   - system call locks: the operating system parks waiters in cooperation
//     with the scheduler (Cray)
//   - combined locks: spin for a limited time, then make a system call
//     (Flex)
//
// This package implements each category (the software lock twice: plain
// test&set and its TTAS refinement) behind a single Lock interface so
// that barriers, selfscheduled loops, critical sections and
// asynchronous variables can be built once and retargeted by swapping the
// lock constructor, exactly as the Force retargeted machines by swapping
// its low-level macro file.
package lock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/poison"
)

// Lock is the generic lock mechanism underlying every Force synchronization
// construct.  The zero value of each implementation is an initialized,
// unlocked lock (the init_lock macro of the paper corresponds to Go zero
// initialization).
type Lock interface {
	// Lock acquires the lock, blocking until it is available.
	Lock()
	// Unlock releases the lock.  Unlocking an unheld lock is a programming
	// error; implementations may panic or silently corrupt state, exactly
	// as the 1989 primitives did.
	Unlock()
}

// TryLocker is implemented by locks that support a non-blocking acquire.
type TryLocker interface {
	Lock
	// TryLock attempts the acquire once and reports whether it succeeded.
	TryLock() bool
}

// Kind names a lock implementation.  It is the unit of machine dependence:
// a machine profile selects a Kind and every construct built on locks
// follows.  All four are kept by rule (a) of README's "Which variants
// exist": §4.1.3's three categories, each selected by a machine profile.
type Kind int

const (
	// TAS is a test-and-set spin lock: the "software lock" of Sequent and
	// Encore.  Every acquire attempt performs a read-modify-write.
	TAS Kind = iota
	// TTAS is test-and-test-and-set: spins reading until the lock looks
	// free, then attempts the atomic swap.  Reduces coherence traffic.
	// The HEP and Alliant profiles' software lock.
	TTAS
	// System models the "system call lock" of the Cray-2: waiters are
	// parked by the scheduler rather than spinning.  Implemented with
	// sync.Mutex, whose slow path parks goroutines in the Go runtime.
	System
	// Combined models the Flex/32 lock: spin for a bounded number of
	// attempts, then fall back to parking.
	Combined
)

var kindNames = map[Kind]string{
	TAS:      "tas",
	TTAS:     "ttas",
	System:   "system",
	Combined: "combined",
}

// String returns the short name of the kind ("tas", "ttas", "system",
// "combined").
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("lock.Kind(%d)", int(k))
}

// ParseKind converts a short name into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("lock: unknown kind %q (kinds: %v)", s, Kinds())
}

// Kinds lists all implemented kinds in presentation order.
func Kinds() []Kind { return []Kind{TAS, TTAS, System, Combined} }

// New returns a fresh, unlocked lock of the given kind.
func New(k Kind) Lock {
	switch k {
	case TAS:
		return new(TASLock)
	case TTAS:
		return new(TTASLock)
	case System:
		return new(SystemLock)
	case Combined:
		return NewCombinedLock(defaultSpinBudget)
	default:
		panic(fmt.Sprintf("lock: unknown kind %d", int(k)))
	}
}

// Factory returns a constructor for the given kind, used by machine
// profiles as the define_lock macro.
func Factory(k Kind) func() Lock {
	return func() Lock { return New(k) }
}

// Acquire acquires l while observing the poison cell: when the force is
// poisoned before the acquire succeeds, Acquire unwinds with
// poison.Abort instead of blocking forever.  It is the acquire used
// wherever a lock *encodes a condition* — the two-lock barrier's
// BARWIN/BARWOT relay and the two-lock asynchronous variable's E/F pair
// block precisely until another process makes progress, so a dead peer
// turns the plain Lock() into a permanent hang.  With a nil cell (or a
// lock without TryLock) Acquire degenerates to Lock().
//
// Plain mutual-exclusion locks (critical sections, accumulator locks)
// do not need Acquire: their holders release on unwind, so waiters
// drain naturally and observe poison at the next construct.  A critical
// section (core.Proc.Critical) tries TryLock once and, only when that
// fails, records its blocked-process site (Force.Blocked) and waits in a
// plain Lock.
func Acquire(l Lock, c *poison.Cell) {
	if c == nil {
		l.Lock()
		return
	}
	tl, ok := l.(TryLocker)
	if !ok {
		l.Lock()
		return
	}
	if tl.TryLock() {
		return
	}
	// Relay-tuned parking: lock-encoded conditions release by
	// sequential handoff, so a waiter's park interval is pure wake
	// latency on every hop of the chain.
	poison.WaitRelay(c, tl.TryLock)
}

// spinYield is called inside spin loops.  Gosched keeps spinning goroutines
// from starving the holder when GOMAXPROCS is smaller than the number of
// spinners — the same reason 1989 spin locks backed off on bus traffic.
func spinYield(iter int) {
	if iter%spinsBeforeYield == spinsBeforeYield-1 {
		runtime.Gosched()
	}
}

const (
	spinsBeforeYield  = 16
	defaultSpinBudget = 128
)

// TASLock is a test-and-set spin lock on a shared word, the software lock
// of the Sequent Balance and Encore Multimax ports (§4.1.3).
type TASLock struct {
	state atomic.Int32
}

var _ TryLocker = (*TASLock)(nil)

// Lock spins performing atomic swaps until the lock is acquired.
func (l *TASLock) Lock() {
	for i := 0; !l.TryLock(); i++ {
		spinYield(i)
	}
}

// TryLock performs a single test-and-set attempt.
func (l *TASLock) TryLock() bool {
	return l.state.Swap(1) == 0
}

// Unlock releases the lock.
func (l *TASLock) Unlock() {
	if l.state.Swap(0) == 0 {
		panic("lock: unlock of unlocked TASLock")
	}
}

// TTASLock is a test-and-test-and-set spin lock: it spins on a plain read
// and only issues the atomic swap when the lock appears free.
type TTASLock struct {
	state atomic.Int32
}

var _ TryLocker = (*TTASLock)(nil)

// Lock spins reading until the word looks free, then swaps.
func (l *TTASLock) Lock() {
	for i := 0; ; i++ {
		if l.state.Load() == 0 && l.state.Swap(1) == 0 {
			return
		}
		spinYield(i)
	}
}

// TryLock performs one test-then-set attempt.
func (l *TTASLock) TryLock() bool {
	return l.state.Load() == 0 && l.state.Swap(1) == 0
}

// Unlock releases the lock.
func (l *TTASLock) Unlock() {
	if l.state.Swap(0) == 0 {
		panic("lock: unlock of unlocked TTASLock")
	}
}

// SystemLock is the "system call" lock category: acquisition failures park
// the caller with the scheduler.  sync.Mutex provides exactly this shape in
// the Go runtime (fast-path CAS, slow-path park).
type SystemLock struct {
	mu sync.Mutex
}

var _ TryLocker = (*SystemLock)(nil)

// Lock acquires the underlying mutex.
func (l *SystemLock) Lock() { l.mu.Lock() }

// Unlock releases the underlying mutex.
func (l *SystemLock) Unlock() { l.mu.Unlock() }

// TryLock attempts a non-blocking acquire.
func (l *SystemLock) TryLock() bool { return l.mu.TryLock() }

// CombinedLock is the Flex/32 category: spin for a bounded budget, then
// fall back to a parking acquire.  The spin phase wins when hold times are
// short; the parking phase bounds wasted cycles when they are long.
type CombinedLock struct {
	budget int
	mu     sync.Mutex
}

var _ TryLocker = (*CombinedLock)(nil)

// NewCombinedLock returns a combined lock that spins for budget attempts
// before parking.  A budget of zero degenerates to a pure system lock.
func NewCombinedLock(budget int) *CombinedLock {
	if budget < 0 {
		budget = 0
	}
	return &CombinedLock{budget: budget}
}

// Lock spins up to the budget, then parks on the mutex.
func (l *CombinedLock) Lock() {
	for i := 0; i < l.budget; i++ {
		if l.mu.TryLock() {
			return
		}
		spinYield(i)
	}
	l.mu.Lock()
}

// TryLock attempts a single non-blocking acquire.
func (l *CombinedLock) TryLock() bool { return l.mu.TryLock() }

// Unlock releases the lock.
func (l *CombinedLock) Unlock() { l.mu.Unlock() }

// Set is a named collection of locks, mirroring the Force's named critical
// sections and lock variables: define_lock(name) creates, lock(name) /
// unlock(name) operate.  Lookup is lock-free after first use of a name via
// sync.Map; creation races resolve to a single winner.
type Set struct {
	factory func() Lock
	locks   sync.Map // string -> Lock
}

// NewSet returns a Set whose locks are created by the given factory.
func NewSet(factory func() Lock) *Set {
	if factory == nil {
		factory = Factory(System)
	}
	return &Set{factory: factory}
}

// Get returns the lock with the given name, creating it on first use.
func (s *Set) Get(name string) Lock {
	if l, ok := s.locks.Load(name); ok {
		return l.(Lock)
	}
	l, _ := s.locks.LoadOrStore(name, s.factory())
	return l.(Lock)
}

// Names returns the names of all locks created so far, in no particular
// order.
func (s *Set) Names() []string {
	var names []string
	s.locks.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	return names
}
