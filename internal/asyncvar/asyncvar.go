// Package asyncvar implements the Force's asynchronous variables: shared
// variables of class Async carrying a full/empty state changed atomically
// with read and write access (paper §3.2, §3.4, §4.2).
//
// The operations are the paper's:
//
//   - Produce waits for the variable to be empty, writes the value, and
//     sets the state to full;
//   - Consume waits for the variable to be full, reads the value, and sets
//     the state to empty;
//   - Void sets the state to empty regardless of its previous state
//     (initialization);
//   - IsFull tests the state without changing it.
//
// Copy (wait for full, read, leave full) comes from the Force User's
// Manual [JBAR87] and is included for the application codes that need a
// broadcast-style read.
//
// Two implementations reproduce the portability story.  On the HEP every
// memory cell had a hardware full/empty bit; on every other machine the
// Force synthesized the state from two locks E and F: "An empty state
// corresponds to E being locked and F unlocked.  A full state corresponds
// to F being locked and E unlocked."  The two-lock implementation here
// follows that protocol literally; the channel implementation stands in
// for the HEP hardware (a capacity-1 channel is a full/empty cell).
package asyncvar

import (
	"fmt"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/poison"
)

// V is a full/empty asynchronous variable holding values of type T.
//
// Void (and only Void) must not race with in-flight Produce/Consume on the
// same variable: the paper positions it as state initialization, and the
// two-lock realization has no atomic way to cancel an in-flight transfer —
// a constraint inherited faithfully from the original.
type V[T any] interface {
	// Produce waits for empty, writes v, and marks the variable full.
	Produce(v T)
	// Consume waits for full, reads the value, and marks it empty.
	Consume() T
	// Copy waits for full and reads the value, leaving it full.
	Copy() T
	// Void forces the state to empty, discarding any value.
	Void()
	// IsFull reports the current state without modifying it.  The answer
	// is advisory: it may be stale by the time the caller acts on it,
	// exactly as a tested full/empty bit was on the HEP.
	IsFull() bool
}

// Poisonable is implemented by asynchronous variables that observe a
// poison cell: a Produce/Consume/Copy blocked while the force is
// poisoned unwinds with poison.Abort instead of waiting for a transfer
// that can never happen.  Every implementation in this package supports
// it.
type Poisonable interface {
	// SetPoison binds the variable's waits to the cell (nil unbinds).
	// It must not be called concurrently with variable operations.
	SetPoison(c *poison.Cell)
}

// SetPoison binds v to the poison cell when v supports it.
func SetPoison[T any](v V[T], c *poison.Cell) {
	if p, ok := v.(Poisonable); ok {
		p.SetPoison(c)
	}
}

// Impl names an asynchronous-variable implementation; each constant says
// which rule of README's "Which variants exist" keeps it.
type Impl int

const (
	// TwoLock synthesizes full/empty from two locks E and F, the paper's
	// protocol for every non-HEP machine.  Kept by rule (a).
	TwoLock Impl = iota
	// Channel models the HEP's hardware full/empty bit with a capacity-1
	// channel.  Kept by rule (a); also the native profile's default.
	Channel
)

var implNames = map[Impl]string{
	TwoLock: "twolock",
	Channel: "channel",
}

// String returns the implementation's short name.
func (i Impl) String() string {
	if s, ok := implNames[i]; ok {
		return s
	}
	return fmt.Sprintf("asyncvar.Impl(%d)", int(i))
}

// ParseImpl converts a short name into an Impl.
func ParseImpl(s string) (Impl, error) {
	for i, n := range implNames {
		if n == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("asyncvar: unknown impl %q (impls: %v)", s, Impls())
}

// Impls lists the implementations in presentation order.
func Impls() []Impl { return []Impl{TwoLock, Channel} }

// New creates an empty asynchronous variable.  The lock factory supplies E
// and F for the TwoLock implementation (nil defaults to system locks) and
// is ignored by Channel.
func New[T any](impl Impl, factory func() lock.Lock) V[T] {
	switch impl {
	case TwoLock:
		if factory == nil {
			factory = lock.Factory(lock.System)
		}
		v := &twoLockVar[T]{e: factory(), f: factory()}
		// Empty state: E locked, F unlocked.
		v.e.Lock()
		return v
	case Channel:
		return &chanVar[T]{ch: make(chan T, 1)}
	default:
		panic(fmt.Sprintf("asyncvar: unknown impl %d", int(impl)))
	}
}

// twoLockVar is the paper's two-lock realization.  State invariant when no
// operation is in flight: empty ⇔ E locked ∧ F unlocked; full ⇔ F locked ∧
// E unlocked.  During a transfer both are briefly locked, which is what
// serializes concurrent producers (they queue on F) and concurrent
// consumers (they queue on E).
type twoLockVar[T any] struct {
	e, f lock.Lock
	val  T
	pc   *poison.Cell
	// full mirrors the lock-encoded state for IsFull/Void; writes happen
	// while both locks are held, so a mutex-free bool would race only
	// with the advisory readers — we guard it with its own tiny lock to
	// stay race-detector clean.
	stMu sync.Mutex
	full bool
}

var _ V[int] = (*twoLockVar[int])(nil)
var _ Poisonable = (*twoLockVar[int])(nil)

// SetPoison binds the E/F waits to the cell.  The two locks encode the
// full/empty condition — a consumer waits in E's acquire until some
// producer runs — so acquisition goes through lock.Acquire.
func (v *twoLockVar[T]) SetPoison(c *poison.Cell) { v.pc = c }

// Produce follows the paper: "Lock F / Write to the asynchronous variable /
// Unlock E."  Other producers find F locked and wait.
func (v *twoLockVar[T]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	lock.Acquire(v.f, v.pc)
	v.val = x
	v.setFull(true)
	v.e.Unlock()
}

// Consume follows the paper: "Lock E / Read from the asynchronous variable /
// Unlock F."  While a Produce is in progress a consumer waits until E is
// unlocked.
func (v *twoLockVar[T]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	lock.Acquire(v.e, v.pc)
	x := v.val
	v.setFull(false)
	v.f.Unlock()
	return x
}

// Copy waits for full (E unlocked), reads, and restores E, leaving the
// variable full.
func (v *twoLockVar[T]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	lock.Acquire(v.e, v.pc)
	x := v.val
	v.e.Unlock()
	return x
}

// Void forces the empty state.  If the variable is full it performs the
// lock half of a Consume and discards the value; if already empty it is a
// no-op.  See the interface comment for the non-concurrency requirement.
func (v *twoLockVar[T]) Void() {
	v.stMu.Lock()
	wasFull := v.full
	v.stMu.Unlock()
	if !wasFull {
		return
	}
	lock.Acquire(v.e, v.pc)
	var zero T
	v.val = zero
	v.setFull(false)
	v.f.Unlock()
}

// IsFull reports the advisory state.
func (v *twoLockVar[T]) IsFull() bool {
	v.stMu.Lock()
	defer v.stMu.Unlock()
	return v.full
}

func (v *twoLockVar[T]) setFull(b bool) {
	v.stMu.Lock()
	v.full = b
	v.stMu.Unlock()
}

// chanVar models the HEP hardware full/empty cell with a capacity-1
// channel: send ⇔ produce (blocks while full), receive ⇔ consume (blocks
// while empty).  An operation first tries the channel without blocking —
// a transfer whose partner is already there touches nothing else — then
// waits through the runtime's spin policy (poison.Spin, poison checked on
// every poll), and only then parks on the channel with the cell's wake
// channel as the unwind path.
type chanVar[T any] struct {
	ch chan T
	pc *poison.Cell
}

var _ V[int] = (*chanVar[int])(nil)
var _ Poisonable = (*chanVar[int])(nil)

// SetPoison binds the channel waits to the cell: a waiting send or receive
// observes it on every poll and, once parked, selects on its wake channel.
func (v *chanVar[T]) SetPoison(c *poison.Cell) { v.pc = c }

// trySend and tryRecv are the non-blocking halves of a transfer.
func (v *chanVar[T]) trySend(x T) bool {
	select {
	case v.ch <- x:
		return true
	default:
		return false
	}
}

func (v *chanVar[T]) tryRecv() (x T, ok bool) {
	select {
	case x = <-v.ch:
		return x, true
	default:
		return x, false
	}
}

// send fills the cell, blocking while it is full; restore says the value
// is one Copy took out and must put back even when the force is poisoned.
func (v *chanVar[T]) send(x T, restore bool) {
	if v.trySend(x) || poison.Spin(v.pc, func() bool { return v.trySend(x) }) {
		return
	}
	select {
	case v.ch <- x:
	case <-v.pc.Done(): // nil channel (never ready) when no poison is wired
		if restore {
			// Restore before unwinding so the abort does not leave a
			// variable empty that Copy promised to leave full; if a racing
			// producer refilled the cell, it is full anyway.
			v.trySend(x)
		}
		v.pc.Check()
	}
}

// Produce sends into the cell, blocking while it is full.
func (v *chanVar[T]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	v.send(x, false)
}

// Consume receives from the cell, blocking while it is empty.
func (v *chanVar[T]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	x, ok := v.tryRecv()
	if ok || poison.Spin(v.pc, func() bool { x, ok = v.tryRecv(); return ok }) {
		return x
	}
	select {
	case x = <-v.ch:
	case <-v.pc.Done():
		v.pc.Check()
	}
	return x
}

// Copy reads the value and immediately restores it.  The cell is briefly
// observable as empty between the two steps; the HEP's read-preserving
// access had no such window, but no Force construct depends on its absence.
func (v *chanVar[T]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	x := v.Consume()
	v.send(x, true)
	return x
}

// Void drains the cell if it holds a value.
func (v *chanVar[T]) Void() {
	select {
	case <-v.ch:
	default:
	}
}

// IsFull reports whether the cell currently holds a value.
func (v *chanVar[T]) IsFull() bool { return len(v.ch) == 1 }
