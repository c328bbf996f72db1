package engine

import "sync/atomic"

// Deque is a Chase-Lev work-stealing deque.  One goroutine — the owner —
// calls Push and PopRef, which operate LIFO on the bottom end and are
// lock-free (a single CAS only when competing for the last element).
// Any number of thieves call StealRef, which takes from the top end FIFO
// through a CAS race.  A steal may fail spuriously when it loses that race;
// callers treat a failed steal as "try another victim", never as "the
// deque is empty forever".
//
// The implementation follows Chase & Lev, "Dynamic Circular Work-Stealing
// Deque" (SPAA 2005), with the simplifications a garbage-collected
// runtime affords: the circular array grows by copying into a fresh ring
// (thieves still reading the old ring stay correct because claimed slots
// are never rewritten there), and elements are boxed so every slot access
// is a pointer atomic the race detector understands.
type Deque[T any] struct {
	top    atomic.Int64 // next index to steal (only ever increases)
	bottom atomic.Int64 // next index to push (owner-written)
	ring   atomic.Pointer[ring[T]]
}

// ring is one power-of-two circular array generation.
type ring[T any] struct {
	mask int64
	slot []atomic.Pointer[T]
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{mask: int64(capacity) - 1, slot: make([]atomic.Pointer[T], capacity)}
}

func (r *ring[T]) at(i int64) *atomic.Pointer[T] { return &r.slot[i&r.mask] }

// grow copies the live window [top, bottom) into a ring twice the size.
func (r *ring[T]) grow(top, bottom int64) *ring[T] {
	nr := newRing[T](2 * len(r.slot))
	for i := top; i < bottom; i++ {
		nr.at(i).Store(r.at(i).Load())
	}
	return nr
}

// NewDeque creates an empty deque with at least the given initial
// capacity (rounded up to a power of two, minimum 8).  The deque grows
// without bound as needed.
func NewDeque[T any](capacity int) *Deque[T] {
	c := 8
	for c < capacity {
		c *= 2
	}
	d := &Deque[T]{}
	d.ring.Store(newRing[T](c))
	return d
}

// Size reports the number of queued elements.  It is exact for the owner
// between its own operations and a momentary snapshot for everyone else.
func (d *Deque[T]) Size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Push appends v at the bottom, boxing it.  Owner only.
func (d *Deque[T]) Push(v T) {
	p := new(T)
	*p = v
	d.PushRef(p)
}

// PushRef appends an already-boxed element at the bottom.  Owner only.
// Callers that recycle boxes (the stealing pool's free lists) use the
// Ref forms to avoid an allocation per element; the box must not be
// written again until it comes back out of the deque.
func (d *Deque[T]) PushRef(p *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t >= int64(len(r.slot)) {
		r = r.grow(t, b)
		d.ring.Store(r)
	}
	r.at(b).Store(p)
	d.bottom.Store(b + 1)
}

// PopRef removes and returns the most recently pushed element, as the
// box Push put it in.  Owner only.
func (d *Deque[T]) PopRef() (*T, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Already empty; restore the canonical empty state.
		d.bottom.Store(t)
		return nil, false
	}
	r := d.ring.Load()
	p := r.at(b).Load()
	if t == b {
		// Last element: race thieves for it through top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(b + 1)
		if !won {
			return nil, false
		}
	}
	return p, true
}

// StealRef removes and returns the oldest element, as the box Push put
// it in.  Any goroutine.  A false return means the deque looked empty or
// the thief lost a race, not that it will stay empty.
func (d *Deque[T]) StealRef() (*T, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.ring.Load()
	p := r.at(t).Load()
	if p == nil || !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	return p, true
}
