package asyncvar

import (
	"repro/internal/lock"
	"repro/internal/poison"
)

// Array is a vector of full/empty cells — the natural shape on the HEP,
// where *every* memory cell carried a hardware full/empty bit, and the
// one the Force User's Manual exposes as asynchronous arrays.  Cells are
// independent: producing A(i) does not affect A(j).
//
// On non-HEP machines each element costs a pair of locks, which is
// exactly the paper's "locks may be scarce resources" caveat (§4.1.3):
// constructing a large two-lock Array on the Cray-2 profile would have
// exhausted the machine's lock supply, while the word realization
// models the HEP's free per-cell state: a cache line per cell, so ring
// neighbours touched by different processes at the same instant never
// share one.
type Array[T any] struct {
	cells []V[T]
}

// NewArray creates an array of n empty cells realized per impl.
func NewArray[T any](impl Impl, factory func() lock.Lock, n int) *Array[T] {
	a := &Array[T]{cells: make([]V[T], n)}
	for i := range a.cells {
		a.cells[i] = New[T](impl, factory)
	}
	return a
}

// SetPoison binds every cell's waits to the poison cell.
func (a *Array[T]) SetPoison(c *poison.Cell) {
	for _, cell := range a.cells {
		SetPoison(cell, c)
	}
}

// Len returns the number of cells.
func (a *Array[T]) Len() int { return len(a.cells) }

// At returns the i-th cell (0-based).
func (a *Array[T]) At(i int) V[T] { return a.cells[i] }

// Produce writes cell i, waiting for it to be empty.
func (a *Array[T]) Produce(i int, v T) { a.cells[i].Produce(v) }

// Consume reads cell i, waiting for it to be full, and empties it.
func (a *Array[T]) Consume(i int) T { return a.cells[i].Consume() }

// Copy reads cell i without emptying it.
func (a *Array[T]) Copy(i int) T { return a.cells[i].Copy() }

// Void forces cell i to empty.
func (a *Array[T]) Void(i int) { a.cells[i].Void() }

// VoidAll forces every cell to empty (array initialization).
func (a *Array[T]) VoidAll() {
	for _, c := range a.cells {
		c.Void()
	}
}

// FullCount reports how many cells are currently full (advisory, like
// IsFull).
func (a *Array[T]) FullCount() int {
	n := 0
	for _, c := range a.cells {
		if c.IsFull() {
			n++
		}
	}
	return n
}
