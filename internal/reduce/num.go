package reduce

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/poison"
)

// Numeric partial-combine episodes for the fused construct pipeline.
//
// A fused DOALL+reduction retires the construct's exit barrier and its
// one-shot reduce Episode and replaces both with a single NumEpisode
// join: every process contributes its partial once, the last arrival
// folds the per-process slots in pid order (exactly the PrivateSlots
// combination order, so floating-point results stay bit-identical to
// the unfused slots strategy for a fixed np), and the episode resets
// itself for reuse once every process has departed.  Reuse is what the
// ordinary Episode machinery cannot offer — it materializes a fresh
// episode per construct instance through the construct-entry table —
// and is the reason the fused hot path allocates nothing per Run.
//
// Values travel as uint64 bit patterns so one episode type serves both
// element types without boxing: NumInt carries an int64 via plain
// conversion, NumReal carries a float64 via math.Float64bits.

// NumKind says how a NumEpisode's uint64 bit patterns are interpreted.
type NumKind int

const (
	// NumInt: bits are int64 (two's complement conversion).
	NumInt NumKind = iota
	// NumReal: bits are float64 (math.Float64bits).
	NumReal
)

// String returns the kind's short name.
func (k NumKind) String() string {
	switch k {
	case NumInt:
		return "int"
	case NumReal:
		return "real"
	}
	return fmt.Sprintf("reduce.NumKind(%d)", int(k))
}

// CombineNum folds two bit-encoded contributions under op.  The
// comparison forms match the generic maxOf/minOf combiners exactly
// (keep the second operand only when strictly greater/less), so a
// NumEpisode fold is indistinguishable from a slotsEpisode fold over
// the same contributions in the same order.
func CombineNum(op Op, k NumKind, a, b uint64) uint64 {
	if k == NumInt {
		x, y := int64(a), int64(b)
		switch op {
		case Sum:
			x += y
		case Prod:
			x *= y
		case Max:
			if y > x {
				x = y
			}
		case Min:
			if y < x {
				x = y
			}
		default:
			panic(fmt.Sprintf("reduce: CombineNum does not serve op %v", op))
		}
		return uint64(x)
	}
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	switch op {
	case Sum:
		x += y
	case Prod:
		x *= y
	case Max:
		if y > x {
			x = y
		}
	case Min:
		if y < x {
			x = y
		}
	default:
		panic(fmt.Sprintf("reduce: CombineNum does not serve op %v", op))
	}
	return math.Float64bits(x)
}

// paddedNumSlot keeps one process's contribution on its own cache line.
type paddedNumSlot struct {
	v uint64
	_ [56]byte
}

// NumEpisode is a reusable numeric reduction join for a fixed np.  One
// use looks like Episode.Do: every process calls Do exactly once, all
// receive the pid-order fold of the contributions, and none returns
// before the fold is complete.  Unlike an Episode it then resets
// itself — the last process to leave Do rearms the counters — so a
// pair of NumEpisodes alternated per construct instance serves any
// number of fused joins with zero steady-state allocation, on the same
// invariant sense-reversing barriers rely on: a process can only reach
// its (k+2)-th join after every process has left its k-th.
//
// The park channel is created lazily, only when a waiter outlives the
// spin window; at np=1, or when the fold wins the race, a use touches
// no channel at all.
type NumEpisode struct {
	np       int
	slots    []paddedNumSlot // padded storage (nil when compact)
	compact  []uint64        // unpadded storage (GOMAXPROCS == 1)
	arrived  atomic.Int64
	departed atomic.Int64
	done     atomic.Uint32
	ch       atomic.Pointer[chan struct{}]
	pc       *poison.Cell
	result   uint64
}

// NewNumEpisode builds a reusable join for np processes.  pc, when
// non-nil, is the force's poison cell: parked waiters unwind with
// poison.Abort when the force dies.
func NewNumEpisode(np int, pc *poison.Cell) *NumEpisode {
	if np <= 0 {
		panic(fmt.Sprintf("reduce: np = %d, need np >= 1", np))
	}
	e := &NumEpisode{np: np, pc: pc}
	if runtime.GOMAXPROCS(0) > 1 {
		e.slots = make([]paddedNumSlot, np)
	} else {
		e.compact = make([]uint64, np)
	}
	return e
}

func (e *NumEpisode) put(pid int, x uint64) {
	if e.slots != nil {
		e.slots[pid].v = x
	} else {
		e.compact[pid] = x
	}
}

func (e *NumEpisode) at(pid int) uint64 {
	if e.slots != nil {
		return e.slots[pid].v
	}
	return e.compact[pid]
}

// Do contributes x and returns the pid-order fold of all np
// contributions under op.  onComplete, when non-nil, runs exactly once
// per use, in the folding process, with the fold, after the result is
// final and before any waiter is released — the barrier-section
// position.  Every caller of one use must pass the same op and kind.
func (e *NumEpisode) Do(pid int, op Op, k NumKind, x uint64, onComplete func(result uint64)) uint64 {
	e.put(pid, x)
	var out uint64
	if e.arrived.Add(1) == int64(e.np) {
		acc := e.at(0)
		for i := 1; i < e.np; i++ {
			acc = CombineNum(op, k, acc, e.at(i))
		}
		e.result = acc
		if onComplete != nil {
			onComplete(acc)
		}
		e.done.Store(1)
		if chp := e.ch.Load(); chp != nil {
			close(*chp)
		}
		out = acc
	} else {
		out = e.await()
	}
	if e.departed.Add(1) == int64(e.np) {
		e.reset()
	}
	return out
}

// await spins (poison.Spin) for the fold, then parks on a lazily installed
// release channel with the poison cell's wake channel as the unwind
// path — the same spin-then-park discipline as release.await.
func (e *NumEpisode) await() uint64 {
	faultinject.Fire(faultinject.ReduceRelease, -1, e.pc)
	if poison.Spin(e.pc, func() bool { return e.done.Load() == 1 }) {
		return e.result
	}
	chp := e.ch.Load()
	if chp == nil {
		nc := make(chan struct{})
		if e.ch.CompareAndSwap(nil, &nc) {
			chp = &nc
		} else {
			chp = e.ch.Load()
		}
	}
	// Re-check after installing the channel: the folder loads the
	// channel pointer after storing done, so either it saw our install
	// (and will close it) or this load sees done == 1.
	if e.done.Load() == 1 {
		return e.result
	}
	select {
	case <-*chp:
	case <-e.pc.Done(): // nil channel (never ready) when no poison is wired
		if e.done.Load() != 1 {
			e.pc.Check()
		}
	}
	return e.result
}

// reset rearms the episode for its next use.  Only the last departer
// runs it, and the alternation invariant (no process re-enters before
// every process has left) orders it before any subsequent put.
func (e *NumEpisode) reset() {
	e.arrived.Store(0)
	e.done.Store(0)
	e.ch.Store(nil)
	e.departed.Store(0)
}
