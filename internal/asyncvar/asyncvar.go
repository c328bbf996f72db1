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
// follows that protocol literally; the word implementation stands in for
// the HEP hardware: one atomic state word beside the value, a cache line
// per cell, so a handoff between two processes costs what the HEP's bit
// did — the one line the value travels in.  (Through PR 25 a capacity-1
// channel stood here; a channel is a runtime mutex, a count, a buffer and
// a parked-goroutine queue where the machine had one bit, and its waiters
// met the Go scheduler before they met their partner.)
//
// Both implementations wait through poison.WaitRelay: a blocked operation
// observes the force's poison cell on every poll and once per (short)
// park interval, and stays on its CPU or gives it up as the shared wait
// policy decides.
package asyncvar

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// Word models the HEP's hardware full/empty bit: an atomic state word
	// on the value's cache line.  Kept by rule (a); also the native
	// profile's default.
	Word
)

var implNames = map[Impl]string{
	TwoLock: "twolock",
	Word:    "word",
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
func Impls() []Impl { return []Impl{TwoLock, Word} }

// New creates an empty asynchronous variable.  The lock factory supplies E
// and F for the TwoLock implementation (nil defaults to system locks) and
// is ignored by Word.
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
	case Word:
		return newWord[T]()
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

// wordVar is the full/empty cell as the HEP had it: one state word beside
// the value, and nothing else on the cache line.  Every operation takes
// the cell from the state it waits for to busy with one compare-and-swap,
// touches the value, and stores the state it leaves behind — so a handoff
// between two processes moves one line, and no operation ever holds the
// cell across a wait.  Waiters poll the word through the runtime's relay
// wait policy (poison.WaitRelay, poison observed on every poll); a poll
// is a plain load, the compare-and-swap is attempted only when the load
// saw the awaited state, so waiters do not pull the line away from the
// process about to release them.
//
// P is padding chosen by newWord so that the cell is one cache line, and
// (the allocator aligns a 64-byte object to 64) owns it: state word and
// value travel together, and two cells allocated anywhere — neighbours of
// an Array, the two halves of a ping-pong — never share a line.  Measured
// on pipeline-ring at np=2: a cell straddling two lines costs a handoff
// half as much again.
type wordVar[T, P any] struct {
	state atomic.Uint32
	pc    *poison.Cell
	_     P
	val   T
}

// newWord creates an empty word cell padded to one line.  A value wider
// than the 48 bytes a line has left gets the state word's line to itself
// and follows on its own.
func newWord[T any]() V[T] {
	var zero T
	switch size := unsafe.Sizeof(zero); {
	case size <= 16:
		return &wordVar[T, [32]byte]{}
	case size <= 32:
		return &wordVar[T, [16]byte]{}
	case size <= 48:
		return &wordVar[T, [0]byte]{}
	default:
		return &wordVar[T, [48]byte]{}
	}
}

// The cell's states.  busy is held only between a successful
// compare-and-swap and the next store, never across a wait.
const (
	stEmpty uint32 = iota
	stFull
	stBusy
)

var _ V[int] = (*wordVar[int, [32]byte])(nil)
var _ Poisonable = (*wordVar[int, [32]byte])(nil)

// SetPoison binds the cell's waits to the poison cell.
func (v *wordVar[T, P]) SetPoison(c *poison.Cell) { v.pc = c }

// try takes the cell from state from to busy if it is there now.
func (v *wordVar[T, P]) try(from uint32) bool {
	return v.state.Load() == from && v.state.CompareAndSwap(from, stBusy)
}

// acquire waits for the cell to be in state from and takes it to busy.
func (v *wordVar[T, P]) acquire(from uint32) {
	if !v.try(from) {
		poison.WaitRelay(v.pc, func() bool { return v.try(from) })
	}
}

// Produce waits for empty, writes the value and marks the cell full.
func (v *wordVar[T, P]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	v.acquire(stEmpty)
	v.val = x
	v.state.Store(stFull)
}

// Consume waits for full, reads the value and marks the cell empty.
func (v *wordVar[T, P]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	v.acquire(stFull)
	x := v.val
	v.state.Store(stEmpty)
	return x
}

// Copy waits for full and reads the value, leaving the cell full: the
// HEP's read-preserving access.  There is no wait, and so no abort,
// between taking the cell and restoring it.
func (v *wordVar[T, P]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	v.acquire(stFull)
	x := v.val
	v.state.Store(stFull)
	return x
}

// Void empties the cell if it holds a value.  A transfer in flight — which
// the interface forbids racing with — is waited out, not torn.
func (v *wordVar[T, P]) Void() {
	for {
		switch v.state.Load() {
		case stEmpty:
			return
		case stFull:
			if v.state.CompareAndSwap(stFull, stBusy) {
				var zero T
				v.val = zero
				v.state.Store(stEmpty)
				return
			}
		default:
			poison.WaitRelay(v.pc, func() bool { return v.state.Load() != stBusy })
		}
	}
}

// IsFull reports whether the cell holds a value.  Busy answers full: a
// Produce in flight can no longer fail, and a Consume, Copy or Void in
// flight started from full.
func (v *wordVar[T, P]) IsFull() bool { return v.state.Load() != stEmpty }
