package sched

import (
	"math"
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
		// Ranges spanning more than MaxInt, at both ends of INTEGER.
		{Range{math.MinInt / 10 * 9, math.MaxInt / 10 * 9, math.MaxInt / 10}, 19},
		{Range{math.MaxInt / 10 * 9, math.MinInt / 10 * 9, -(math.MaxInt / 10)}, 19},
		{Range{math.MinInt, math.MaxInt, math.MaxInt}, 3},
		{Range{math.MaxInt, math.MinInt, math.MinInt}, 2},
		{Range{math.MinInt, math.MaxInt, 1}, math.MaxInt},
		{Range{math.MaxInt, math.MinInt, 1}, 0},
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

// TestNewRejectsPrescheduled: the prescheduled kinds are pure deals with
// no shared state to arm, and Arm says so by name.
func TestNewRejectsPrescheduled(t *testing.T) {
	for _, k := range []Kind{PreschedBlock, PreschedCyclic} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, k.String()) || !strings.Contains(msg, "prescheduled") {
					t.Errorf("Arm(%v) panicked with %q, want the kind named as a prescheduled deal", k, msg)
				}
			}()
			new(Loop).Arm(k, 4, 1, Config{})
		}()
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Arm with unknown kind did not panic")
		}
	}()
	new(Loop).Arm(Kind(42), 4, 1, Config{})
}

// forEach is this file's single-construct driver: it runs body(pid, index)
// for every index of r, distributed over np goroutines under discipline k
// (a pure deal or a shared Loop armed at grant 1) — the loop
// core.openSpans embeds inside long-lived force processes.
func forEach(k Kind, np int, r Range, cfg Config, body func(pid, index int)) {
	n := r.Count()
	s := new(Loop)
	if k != PreschedBlock && k != PreschedCyclic {
		s.Arm(k, n, 1, cfg)
	}
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
				for lo, hi, ok := s.Next(); ok; lo, hi, ok = s.Next() {
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
	cfg := Config{LockFactory: lock.Factory(lock.TTAS)}
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
	s := new(Loop)
	s.Arm(Chunk, 100, 1, Config{})
	lo, hi, ok := s.Next()
	if !ok || hi-lo != DefaultChunk {
		t.Errorf("default chunk = [%d,%d), want size %d", lo, hi, DefaultChunk)
	}
}

// TestGrantAdvancesEveryDiscipline: one claim takes the grant — under the
// loop lock, by fetch-and-add, and max(DefaultChunk, grant) for Chunk — the last
// claim is clipped to the range, a loop smaller than one grant goes whole
// to the first claimant, and a re-armed Loop starts over (keeping its
// loop lock).
func TestGrantAdvancesEveryDiscipline(t *testing.T) {
	cfg := Config{}
	for _, tc := range []struct {
		k        Kind
		n, grant int
		want     [][2]int
	}{
		{SelfLock, 10, 4, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{SelfAtomic, 10, 4, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{Chunk, 40, 3, [][2]int{{0, 16}, {16, 32}, {32, 40}}},              // DefaultChunk > grant 3
		{Chunk, 40, 20, [][2]int{{0, 20}, {20, 40}}},                       // grant 20 > DefaultChunk
		{SelfLock, 3, 64, [][2]int{{0, 3}}},                                // n < grant: the whole loop
		{SelfAtomic, 0, 64, nil},                                           // empty loop
		{SelfLock, 5, 0, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}}, // grant < 1 means 1
	} {
		l := new(Loop)
		for round := 0; round < 2; round++ { // the second round re-arms the same Loop
			l.Arm(tc.k, tc.n, tc.grant, cfg)
			var got [][2]int
			for lo, hi, ok := l.Next(); ok; lo, hi, ok = l.Next() {
				got = append(got, [2]int{lo, hi})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%v n=%d grant=%d round %d: claims %v, want %v", tc.k, tc.n, tc.grant, round, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("%v n=%d grant=%d round %d: claims %v, want %v", tc.k, tc.n, tc.grant, round, got, tc.want)
				}
			}
			if _, _, ok := l.Next(); ok {
				t.Errorf("%v: Next after exhaustion granted work", tc.k)
			}
		}
	}
}

// TestGrantedCoverageUnderContention: np goroutines draining one Loop at
// a grant that does not divide n still execute every ordinal exactly once.
func TestGrantedCoverageUnderContention(t *testing.T) {
	const np, n, grant = 4, 1003, 7
	for _, k := range []Kind{SelfLock, SelfAtomic, Chunk} {
		l := new(Loop)
		l.Arm(k, n, grant, Config{LockFactory: lock.Factory(lock.TTAS)})
		claim := grant
		if k == Chunk {
			claim = DefaultChunk
		}
		seen := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		for p := 0; p < np; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lo, hi, ok := l.Next(); ok; lo, hi, ok = l.Next() {
					if hi-lo > claim {
						t.Errorf("%v: claim [%d,%d) exceeds %d", k, lo, hi, claim)
					}
					for o := lo; o < hi; o++ {
						seen[o].Add(1)
					}
				}
			}()
		}
		wg.Wait()
		for o := range seen {
			if c := seen[o].Load(); c != 1 {
				t.Fatalf("%v: ordinal %d executed %d times", k, o, c)
			}
		}
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
		forEach(k, np, r, Config{}, func(pid, index int) {
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
