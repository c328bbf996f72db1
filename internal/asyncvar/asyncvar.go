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
// policy decides.  Produce, Consume and Copy are split into a first try
// (Try), which fires the operation's fault-injection site, and the wait
// (Await), so a front end can record where it blocks only when it does.
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
	// Try fires op's fault-injection site and, if the variable is in the
	// state op starts from, performs op — writing x for a Produce — and
	// returns the value read and true.  On false the variable is
	// unchanged; a caller that tries first completes op with Await, which
	// waits without firing the site again.  Produce, Consume and Copy are
	// exactly that pair.
	Try(op Op, x T) (T, bool)
	// Await waits for the state op starts from and performs op.
	Await(op Op, x T) T
}

// Op is a transition a Produce, Consume or Copy asks of a variable, as
// Try and Await take it.
type Op uint8

const (
	OpProduce Op = iota // empty -> full, writing the value
	OpConsume           // full -> empty, reading it
	OpCopy              // full -> full, reading it
)

// fire fires op's fault-injection site.  Try calls it only while a plan
// is armed, so a disabled harness costs a statement one load.
func fire(op Op, c *poison.Cell) {
	switch op {
	case OpProduce:
		faultinject.Fire(faultinject.AsyncProduce, -1, c)
	case OpConsume:
		faultinject.Fire(faultinject.AsyncConsume, -1, c)
	default:
		faultinject.Fire(faultinject.AsyncCopy, -1, c)
	}
}

// do is Produce, Consume and Copy on either realization: op tried once,
// awaited when the variable was not ready.
func do[T any](v V[T], op Op, x T) T {
	if y, ok := v.Try(op, x); ok {
		return y
	}
	return v.Await(op, x)
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

func (v *twoLockVar[T]) Produce(x T)    { do[T](v, OpProduce, x) }
func (v *twoLockVar[T]) Consume() (x T) { return do[T](v, OpConsume, x) }
func (v *twoLockVar[T]) Copy() (x T)    { return do[T](v, OpCopy, x) }

// gate is the lock op waits in: F for a Produce, E for a Consume or Copy.
func (v *twoLockVar[T]) gate(op Op) lock.Lock {
	if op == OpProduce {
		return v.f
	}
	return v.e
}

// Try takes op's gate if it is free now (a lock that cannot be tried
// never is).
func (v *twoLockVar[T]) Try(op Op, x T) (T, bool) {
	if faultinject.Enabled() {
		fire(op, v.pc)
	}
	if tl, ok := v.gate(op).(lock.TryLocker); !ok || !tl.TryLock() {
		return x, false
	}
	return v.finish(op, x), true
}

// Await waits in op's gate.
func (v *twoLockVar[T]) Await(op Op, x T) T {
	lock.Acquire(v.gate(op), v.pc)
	return v.finish(op, x)
}

// finish completes op holding its gate, as the paper has it: a Produce is
// "Lock F / Write to the asynchronous variable / Unlock E" — other
// producers find F locked and wait — a Consume "Lock E / Read from the
// asynchronous variable / Unlock F", and a Copy reads and restores E,
// leaving the variable full.
func (v *twoLockVar[T]) finish(op Op, x T) T {
	switch op {
	case OpProduce:
		v.val = x
		v.setFull(true)
		v.e.Unlock()
	case OpConsume:
		x = v.val
		v.setFull(false)
		v.f.Unlock()
	default:
		x = v.val
		v.e.Unlock()
	}
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

func (v *wordVar[T, P]) Produce(x T)    { do[T](v, OpProduce, x) }
func (v *wordVar[T, P]) Consume() (x T) { return do[T](v, OpConsume, x) }
func (v *wordVar[T, P]) Copy() (x T)    { return do[T](v, OpCopy, x) }

// The state each operation takes the cell from, and the one it leaves: a
// Copy is the HEP's read-preserving access.
var opFrom, opTo = [...]uint32{stEmpty, stFull, stFull}, [...]uint32{stFull, stEmpty, stFull}

// Try takes the cell to busy if it is in op's starting state now.
func (v *wordVar[T, P]) Try(op Op, x T) (T, bool) {
	if faultinject.Enabled() {
		fire(op, v.pc)
	}
	if !v.try(opFrom[op]) {
		return x, false
	}
	return v.finish(op, x), true
}

// Await polls the word through the relay wait policy.
func (v *wordVar[T, P]) Await(op Op, x T) T {
	from := opFrom[op]
	poison.WaitRelay(v.pc, func() bool { return v.try(from) })
	return v.finish(op, x)
}

// finish completes op on the cell it holds busy.  There is no wait, and so
// no abort, between taking the cell and releasing it.
func (v *wordVar[T, P]) finish(op Op, x T) T {
	if op == OpProduce {
		v.val = x
	} else {
		x = v.val
	}
	v.state.Store(opTo[op])
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
