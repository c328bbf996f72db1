package asyncvar

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/poison"
)

const cacheLine = 64

// hotSpan is the address range of a word cell's hot fields: the state
// word through the end of the value.  The padding type differs by value
// size and by target, so the fields are found by name.
func hotSpan[T any](t *testing.T, v V[T]) (lo, hi uintptr) {
	t.Helper()
	w := reflect.ValueOf(v).Elem()
	state, val := w.FieldByName("state"), w.FieldByName("val")
	if !strings.HasPrefix(w.Type().Name(), "wordVar[") || !state.IsValid() || !val.IsValid() {
		t.Fatalf("%T is not a word cell", v)
	}
	return state.UnsafeAddr(), val.UnsafeAddr() + val.Type().Size()
}

// assertOwnLines fails when a cell's hot fields straddle two cache lines
// or two cells' hot fields share one.
func assertOwnLines[T any](t *testing.T, what string, cells ...V[T]) {
	t.Helper()
	owner := map[uintptr]int{}
	for i, c := range cells {
		lo, hi := hotSpan(t, c)
		if lo/cacheLine != (hi-1)/cacheLine {
			t.Errorf("%s: cell %d's hot fields [%#x,%#x) straddle two %d-byte lines", what, i, lo, hi, cacheLine)
		}
		if j, taken := owner[lo/cacheLine]; taken {
			t.Errorf("%s: cells %d and %d share a %d-byte line", what, j, i, cacheLine)
		}
		owner[lo/cacheLine] = i
	}
}

// TestWordCellsOwnTheirLine: ring neighbours of an Array are touched by
// different processes at the same instant, and so are the two variables
// of a ping-pong; a word cell holding anything up to 48 bytes is one cache
// line — state word and value arrive together — and no two share one,
// however they were allocated.
func TestWordCellsOwnTheirLine(t *testing.T) {
	type wide struct{ a, b, c, d int64 } // the interpreter's value is this size
	type widest struct{ a, b, c, d, e, f int64 }
	for n := 2; n <= 9; n++ {
		ai, as := NewArray[int](Word, nil, n), NewArray[string](Word, nil, n)
		aw, ax := NewArray[wide](Word, nil, n), NewArray[widest](Word, nil, n)
		var ci []V[int]
		var cs []V[string]
		var cw []V[wide]
		var cx []V[widest]
		for i := 0; i < n; i++ {
			ci, cs, cw, cx = append(ci, ai.At(i)), append(cs, as.At(i)), append(cw, aw.At(i)), append(cx, ax.At(i))
		}
		assertOwnLines(t, "Array[int]", ci...)
		assertOwnLines(t, "Array[string]", cs...)
		assertOwnLines(t, "Array[wide]", cw...)
		assertOwnLines(t, "Array[widest]", cx...)
	}
	assertOwnLines(t, "two scalars", New[int](Word, nil), New[int](Word, nil))
	assertOwnLines(t, "two bytes", New[byte](Word, nil), New[byte](Word, nil))
}

// TestWideValueStillTransfers: a value too wide for the state word's line
// is carried all the same.
func TestWideValueStillTransfers(t *testing.T) {
	type huge [9]int64
	v := New[huge](Word, nil)
	v.Produce(huge{8: 7})
	if got := v.Copy(); got[8] != 7 || !v.IsFull() {
		t.Fatalf("Copy = %v, full = %v", got, v.IsFull())
	}
	if got := v.Consume(); got[8] != 7 || v.IsFull() {
		t.Fatalf("Consume = %v, full = %v", got, v.IsFull())
	}
}

// TestHandoffAllocatesNothing: a steady-state Produce / Consume pair on
// either realization — the partner already there, so neither waits —
// performs no heap allocation, poison wired or not.
func TestHandoffAllocatesNothing(t *testing.T) {
	for _, impl := range Impls() {
		for _, c := range []*poison.Cell{nil, poison.NewCell()} {
			v := New[int](impl, nil)
			SetPoison(v, c)
			if n := testing.AllocsPerRun(200, func() {
				v.Produce(7)
				_ = v.Copy()
				_ = v.Consume()
			}); n != 0 {
				t.Errorf("%v (poison wired: %v): %v allocs per Produce/Copy/Consume, want 0", impl, c != nil, n)
			}
		}
	}
}

// TestCrossProcessHandoffAllocatesNothing: the waiting side of a handoff
// — a Consume that arrives before its Produce and polls through the wait
// policy — allocates nothing either.
func TestCrossProcessHandoffAllocatesNothing(t *testing.T) {
	c := poison.NewCell()
	c.SetProcs(2)
	ping, pong := New[int](Word, nil), New[int](Word, nil)
	SetPoison(ping, c)
	SetPoison(pong, c)
	const trips = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < trips+1; i++ { // AllocsPerRun makes one warm-up call
			pong.Produce(ping.Consume())
		}
	}()
	if n := testing.AllocsPerRun(trips, func() {
		ping.Produce(1)
		_ = pong.Consume()
	}); n != 0 {
		t.Errorf("%v allocs per ping-pong round trip, want 0", n)
	}
	wg.Wait()
}

// TestVoidWaitsOutATransfer: Void meeting a cell in transfer (which the
// interface tells callers not to arrange) neither tears the transfer nor
// spins unobserved: it empties the cell once the transfer lands.
func TestVoidWaitsOutATransfer(t *testing.T) {
	v := New[int](Word, nil).(*wordVar[int, [48 - wordHeader]byte])
	v.state.Store(stBusy) // a Produce between its compare-and-swap and its store
	done := make(chan struct{})
	go func() { v.Void(); close(done) }()
	select {
	case <-done:
		t.Fatal("Void returned while a transfer held the cell")
	default:
	}
	v.val = 5
	v.state.Store(stFull)
	<-done
	if v.IsFull() {
		t.Fatal("full after Void")
	}
}
