package sched

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/lock"
)

func TestRangeCount(t *testing.T) {
	cases := []struct {
		r    Range
		want int
	}{
		{Range{1, 10, 1}, 10},
		{Range{1, 10, 2}, 5},
		{Range{1, 10, 3}, 4},
		{Range{10, 1, -1}, 10},
		{Range{10, 1, -3}, 4},
		{Range{5, 5, 1}, 1},
		{Range{5, 5, -1}, 1},
		{Range{6, 5, 1}, 0},
		{Range{5, 6, -1}, 0},
		{Range{0, -1, 1}, 0},
		{Seq(7), 7},
		{Seq(0), 0},
	}
	for _, c := range cases {
		if got := c.r.Count(); got != c.want {
			t.Errorf("Count(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestRangeZeroIncrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Count with Incr=0 did not panic")
		}
	}()
	Range{1, 10, 0}.Count()
}

func TestRangeIndex(t *testing.T) {
	r := Range{10, 1, -3} // 10, 7, 4, 1
	want := []int{10, 7, 4, 1}
	for k, w := range want {
		if got := r.Index(k); got != w {
			t.Errorf("Index(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestRangeString(t *testing.T) {
	if got := (Range{2, 9, 3}).String(); got != "2, 9, 3" {
		t.Errorf("String() = %q", got)
	}
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded")
	}
	if got := Kind(55).String(); got != "sched.Kind(55)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with np=0 did not panic")
		}
	}()
	New(SelfLock, 0, Seq(4), Config{})
}

// TestNewRejectsPrescheduled: the prescheduled kinds are pure deals, not
// Scheduler objects, and New says so by name.
func TestNewRejectsPrescheduled(t *testing.T) {
	for _, k := range []Kind{PreschedBlock, PreschedCyclic} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, k.String()) || !strings.Contains(msg, "prescheduled") {
					t.Errorf("New(%v) panicked with %q, want the kind named as a prescheduled deal", k, msg)
				}
			}()
			New(k, 2, Seq(4), Config{})
		}()
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with unknown kind did not panic")
		}
	}()
	New(Kind(42), 2, Seq(4), Config{})
}

// forEach is this file's single-construct driver: it runs body(pid, index)
// for every index of r, distributed over np goroutines under discipline k
// (a pure deal or a shared one-episode Scheduler) — the loop
// core.openSpans embeds inside long-lived force processes.
func forEach(k Kind, np int, r Range, cfg Config, body func(pid, index int)) {
	var s Scheduler
	if k != PreschedBlock && k != PreschedCyclic {
		s = New(k, np, r, cfg)
	}
	n := r.Count()
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			span := func(lo, hi, stride int) {
				for o := lo; o < hi; o += stride {
					body(pid, r.Index(o))
				}
			}
			switch k {
			case PreschedBlock:
				lo, hi := BlockSpan(pid, np, n)
				span(lo, hi, 1)
			case PreschedCyclic:
				span(CyclicSpan(pid, np, n))
			default:
				for lo, hi, ok := s.Next(pid); ok; lo, hi, ok = s.Next(pid) {
					span(lo, hi, 1)
				}
			}
		}(p)
	}
	wg.Wait()
}

// collect runs a full parallel loop and returns the multiset of executed
// index values.
func collect(t *testing.T, k Kind, np int, r Range, cfg Config) []int {
	t.Helper()
	var mu sync.Mutex
	var got []int
	forEach(k, np, r, cfg, func(pid, index int) {
		mu.Lock()
		got = append(got, index)
		mu.Unlock()
	})
	sort.Ints(got)
	return got
}

func expected(r Range) []int {
	n := r.Count()
	out := make([]int, n)
	for k := 0; k < n; k++ {
		out[k] = r.Index(k)
	}
	sort.Ints(out)
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryIndexExactlyOnce is the fundamental DOALL property: every
// discipline executes each index value exactly once, for positive and
// negative strides, empty loops, and np larger than the trip count.
func TestEveryIndexExactlyOnce(t *testing.T) {
	ranges := []Range{
		{1, 100, 1},
		{1, 100, 7},
		{100, 1, -1},
		{50, -50, -13},
		{3, 3, 1},
		{4, 3, 1},   // empty
		{-5, 20, 4}, // negative start
		{9, 2, -3},  // non-unit negative step, n < np for most np below
	}
	cfg := Config{ChunkSize: 4, LockFactory: lock.Factory(lock.TTAS)}
	for _, k := range Kinds() {
		for _, np := range []int{1, 2, 3, 8, 150} {
			for _, r := range ranges {
				got := collect(t, k, np, r, cfg)
				want := expected(r)
				if !equal(got, want) {
					t.Errorf("%v np=%d r=%v: got %d indices, want %d (multisets differ)",
						k, np, r, len(got), len(want))
				}
			}
		}
	}
}

// TestPreschedBlockShape verifies block scheduling is contiguous and
// balanced to within one iteration.
func TestPreschedBlockShape(t *testing.T) {
	const np, n = 4, 10
	sizes := make([]int, np)
	prevHi := 0
	for pid := 0; pid < np; pid++ {
		lo, hi := BlockSpan(pid, np, n)
		if lo >= hi {
			t.Fatalf("pid %d got no block", pid)
		}
		if lo != prevHi {
			t.Errorf("pid %d block starts at %d, want %d (contiguous)", pid, lo, prevHi)
		}
		prevHi = hi
		sizes[pid] = hi - lo
	}
	if prevHi != n {
		t.Errorf("blocks cover [0,%d), want [0,%d)", prevHi, n)
	}
	for _, sz := range sizes {
		if sz < n/np || sz > n/np+1 {
			t.Errorf("block sizes %v unbalanced", sizes)
		}
	}
}

// TestPreschedCyclicShape verifies each process gets exactly the ordinals
// congruent to its pid.
func TestPreschedCyclicShape(t *testing.T) {
	const np, n = 3, 11
	for pid := 0; pid < np; pid++ {
		want := pid
		lo, hi, stride := CyclicSpan(pid, np, n)
		for o := lo; o < hi; o += stride {
			if o != want {
				t.Errorf("pid %d got ordinal %d, want %d", pid, o, want)
			}
			want += np
		}
		if last := want - np; last != CyclicLast(pid, np, n) || last >= n {
			t.Errorf("pid %d: last dealt ordinal %d, CyclicLast %d, n %d", pid, last, CyclicLast(pid, np, n), n)
		}
	}
	// n < np: the processes beyond the trip count are dealt nothing.
	if lo, hi, _ := CyclicSpan(5, 8, 3); lo < hi {
		t.Errorf("CyclicSpan(5, 8, 3) = [%d,%d), want empty", lo, hi)
	}
}

// TestSelfschedDrainsAroundStuckProcess is the load-balancing property
// stated deterministically: while one process is held inside a long
// iteration, the rest of the force must be able to drain every other
// iteration (with block prescheduling this program would deadlock).
// Only the one-iteration-per-acquire disciplines give the exact
// guarantee; chunked variants keep whole chunks on the stuck process.
func TestSelfschedDrainsAroundStuckProcess(t *testing.T) {
	const np, n = 4, 64
	for _, k := range []Kind{SelfLock, SelfAtomic} {
		var done atomic.Int64
		forEach(k, np, Seq(n), Config{}, func(pid, index int) {
			if index == 0 {
				// Stay inside iteration 0 until every other
				// iteration has completed on other processes.
				for done.Load() < n-1 {
					runtime.Gosched()
				}
				return
			}
			done.Add(1)
		})
		if done.Load() != n-1 {
			t.Errorf("%v: drained %d iterations", k, done.Load())
		}
	}
}

func TestChunkSizeRespected(t *testing.T) {
	s := New(Chunk, 2, Seq(100), Config{ChunkSize: 8})
	lo, hi, ok := s.Next(0)
	if !ok || hi-lo != 8 {
		t.Errorf("chunk = [%d,%d), want size 8", lo, hi)
	}
	// Default chunk size when zero.
	s = New(Chunk, 2, Seq(100), Config{})
	lo, hi, ok = s.Next(0)
	if !ok || hi-lo != DefaultChunk {
		t.Errorf("default chunk = [%d,%d), want size %d", lo, hi, DefaultChunk)
	}
}

func TestPidOutOfRangePanics(t *testing.T) {
	for _, k := range []Kind{PreschedBlock, PreschedCyclic} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range pid did not panic")
				}
			}()
			if k == PreschedBlock {
				BlockSpan(5, 2, 10)
			} else {
				CyclicSpan(5, 2, 10)
			}
		})
	}
}

// Property: for any (kind, np, range), the multiset of scheduled indices
// equals the sequential loop's indices.
func TestQuickCoverage(t *testing.T) {
	prop := func(kindIdx, npRaw uint8, start int8, count, incrRaw uint8) bool {
		kinds := Kinds()
		k := kinds[int(kindIdx)%len(kinds)]
		np := int(npRaw)%6 + 1
		incr := int(incrRaw)%7 - 3
		if incr == 0 {
			incr = 1
		}
		n := int(count) % 120
		r := Range{Start: int(start), Last: int(start) + (n-1)*incr, Incr: incr}
		if n == 0 {
			r = Range{Start: int(start), Last: int(start) - incr, Incr: incr}
		}
		var mu sync.Mutex
		var got []int
		forEach(k, np, r, Config{ChunkSize: 3}, func(pid, index int) {
			mu.Lock()
			got = append(got, index)
			mu.Unlock()
		})
		sort.Ints(got)
		return equal(got, expected(r))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
