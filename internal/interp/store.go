package interp

// Slot-addressed storage for the compiled executor.  The tree walker
// serializes every shared access behind one per-run mutex; the compiled
// executor makes every shared scalar and every shared array element one
// atomic word instead (one word suffices once the declared type is
// fixed), so accesses to different variables or elements never meet and
// there is no lock anywhere in the store.  An improperly synchronized
// Force program remains a well-defined (if nondeterministic) Go program:
// each load observes some whole value stored to that word, the same
// per-location guarantee the global mutex gave.

import (
	"math"
	"sync/atomic"

	"repro/internal/forcelang"
)

// sharedScalar is one shared scalar variable: an atomic cell holding the
// value's bit pattern in the variable's declared type (int64 bits,
// float64 bits, or 0/1 for LOGICAL).  Loads and stores are single atomic
// operations — the per-variable replacement for the tree walker's global
// shared-memory mutex.
type sharedScalar struct {
	t    forcelang.Type
	bits atomic.Uint64
}

func newSharedScalar(t forcelang.Type) *sharedScalar { return &sharedScalar{t: t} }

func (c *sharedScalar) load() value { return fromBits(c.t, c.bits.Load()) }

// store saves v, which must already be coerced to the cell's type.
func (c *sharedScalar) store(v value) { c.bits.Store(toBits(c.t, v)) }

// fromBits and toBits convert between a boxed value and the bit pattern
// a shared word of declared type t holds.
func fromBits(t forcelang.Type, b uint64) value {
	switch t {
	case forcelang.TInt:
		return intVal(int64(b))
	case forcelang.TReal:
		return realVal(math.Float64frombits(b))
	default:
		return boolVal(b != 0)
	}
}

func toBits(t forcelang.Type, v value) uint64 {
	switch t {
	case forcelang.TInt:
		return uint64(v.i)
	case forcelang.TReal:
		return math.Float64bits(v.r)
	default:
		return boolBits(v.b)
	}
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Typed accessors for the chunk compiler: the declared type is known at
// compile time, so loads and stores can skip the value boxing and the
// type switch.  Each is still a single atomic operation on the cell.

func (c *sharedScalar) loadInt() int64      { return int64(c.bits.Load()) }
func (c *sharedScalar) loadReal() float64   { return math.Float64frombits(c.bits.Load()) }
func (c *sharedScalar) loadBool() bool      { return c.bits.Load() != 0 }
func (c *sharedScalar) storeInt(i int64)    { c.bits.Store(uint64(i)) }
func (c *sharedScalar) storeReal(r float64) { c.bits.Store(math.Float64bits(r)) }
func (c *sharedScalar) storeBool(b bool)    { c.bits.Store(boolBits(b)) }

// The shared accumulate's indivisible updates (add, strict MAX / MIN) are
// forcert's, applied to the cell's word: forcert.Add(&c.bits, d) and kin.

// sharedArray is one shared array: a flat slice of atomic words, each
// holding one element's bit pattern in the array's declared type —
// element for element what sharedScalar is.  Loads and stores are
// single atomic word operations, so accesses to different elements never
// meet and a racy program observes, per element, some whole value that
// was stored there (never a torn or mistyped one).
type sharedArray struct {
	t    forcelang.Type
	dims []int
	data []atomic.Uint64
}

func newSharedArray(d forcelang.Decl) *sharedArray {
	return &sharedArray{t: d.Type, dims: d.Dims, data: make([]atomic.Uint64, d.Size())}
}

func (a *sharedArray) shape() []int { return a.dims }

func (a *sharedArray) load(off int) value { return fromBits(a.t, a.data[off].Load()) }

// store saves v, which must already be coerced to the array's type.
func (a *sharedArray) store(off int, v value) { a.data[off].Store(toBits(a.t, v)) }

// Typed accessors for the chunk compiler, as on sharedScalar.

func (a *sharedArray) loadInt(off int) int64        { return int64(a.data[off].Load()) }
func (a *sharedArray) loadReal(off int) float64     { return math.Float64frombits(a.data[off].Load()) }
func (a *sharedArray) loadBool(off int) bool        { return a.data[off].Load() != 0 }
func (a *sharedArray) storeInt(off int, i int64)    { a.data[off].Store(uint64(i)) }
func (a *sharedArray) storeReal(off int, r float64) { a.data[off].Store(math.Float64bits(r)) }
func (a *sharedArray) storeBool(off int, b bool)    { a.data[off].Store(boolBits(b)) }

// privArray is a private array: per-process (or per-call) storage, no
// synchronization needed.
type privArray struct {
	dims []int
	data []value
}

func newPrivArray(d forcelang.Decl) *privArray {
	a := &privArray{dims: d.Dims, data: make([]value, d.Size())}
	zero := value{t: d.Type}
	for i := range a.data {
		a.data[i] = zero
	}
	return a
}

func (a *privArray) shape() []int           { return a.dims }
func (a *privArray) load(off int) value     { return a.data[off] }
func (a *privArray) store(off int, v value) { a.data[off] = v }

// scalarRef abstracts one scalar storage location for by-reference
// parameter binding: the callee stores through the interface without
// knowing whether the argument was a shared cell, a caller-private slot
// or an array element.  Stored values must already be coerced to the
// variable's declared type.
type scalarRef interface {
	load() value
	store(v value)
}

// privPtr aliases a private scalar slot (a parameter bound to
// caller-private storage); only the binding process touches it.
type privPtr struct{ p *value }

func (r privPtr) load() value   { return *r.p }
func (r privPtr) store(v value) { *r.p = v }

// arrayRef abstracts whole-array parameter bindings the same way.
type arrayRef interface {
	shape() []int
	load(off int) value
	store(off int, v value)
}

// elemRef aliases one array element (an element argument at a call
// site); a shared-array element stays one atomic word through it.
type elemRef struct {
	a   arrayRef
	off int
}

func (r elemRef) load() value   { return r.a.load(r.off) }
func (r elemRef) store(v value) { r.a.store(r.off, v) }
