package reduce

import (
	"math"
	"sync"
	"testing"

	"repro/internal/poison"
)

// Drive one NumEpisode use with np goroutines contributing vals.
func numJoinOnce(t *testing.T, e *NumEpisode, op Op, k NumKind, vals []uint64) []uint64 {
	t.Helper()
	out := make([]uint64, len(vals))
	var wg sync.WaitGroup
	for pid := range vals {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			out[pid] = e.Do(pid, op, k, vals[pid], nil)
		}(pid)
	}
	wg.Wait()
	return out
}

func TestNumEpisodeMatchesSlots(t *testing.T) {
	const np = 8
	cases := []struct {
		op   Op
		k    NumKind
		vals []float64
	}{
		{Sum, NumReal, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
		{Prod, NumReal, []float64{1.1, 0.9, 2.5, 0.3, 1.7, 0.01, 40, 3}},
		{Max, NumReal, []float64{-1, 5, 3, 5, 2, -8, 4.5, 0}},
		{Min, NumReal, []float64{-1, 5, 3, 5, 2, -8, 4.5, 0}},
	}
	for _, tc := range cases {
		// Reference: the deterministic slots strategy, pid-order fold.
		slots := newSlots[float64](np, func(a, b float64) float64 {
			return math.Float64frombits(CombineNum(tc.op, NumReal, math.Float64bits(a), math.Float64bits(b)))
		}, nil, nil)
		want := make([]float64, np)
		var wg sync.WaitGroup
		for pid := 0; pid < np; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				want[pid] = slots.Do(pid, tc.vals[pid])
			}(pid)
		}
		wg.Wait()

		e := NewNumEpisode(np, nil)
		bits := make([]uint64, np)
		for i, v := range tc.vals {
			bits[i] = math.Float64bits(v)
		}
		got := numJoinOnce(t, e, tc.op, tc.k, bits)
		for pid := 0; pid < np; pid++ {
			if math.Float64bits(want[pid]) != got[pid] {
				t.Errorf("op %v pid %d: slots %x, fused %x", tc.op, pid, math.Float64bits(want[pid]), got[pid])
			}
		}
	}
}

func TestNumEpisodeIntOps(t *testing.T) {
	const np = 4
	ints := []int64{-3, 7, 2, -1}
	vals := make([]uint64, np)
	for i, v := range ints {
		vals[i] = uint64(v)
	}
	want := map[Op]int64{Sum: 5, Prod: 42, Max: 7, Min: -3}
	for op, w := range want {
		e := NewNumEpisode(np, nil)
		got := numJoinOnce(t, e, op, NumInt, vals)
		for pid, g := range got {
			if int64(g) != w {
				t.Errorf("op %v pid %d: got %d, want %d", op, pid, int64(g), w)
			}
		}
	}
}

// Reuse: the episode must rearm itself after every process departs, so
// one pair alternated serves an arbitrarily long run of joins.
func TestNumEpisodeReuseAlternating(t *testing.T) {
	const np = 4
	const rounds = 200
	eps := [2]*NumEpisode{NewNumEpisode(np, nil), NewNumEpisode(np, nil)}
	var wg sync.WaitGroup
	errs := make(chan string, np)
	for pid := 0; pid < np; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := int64(eps[r&1].Do(pid, Sum, NumInt, uint64(int64(pid+r)), nil))
				want := int64(np*r + (np-1)*np/2)
				if got != want {
					errs <- "round mismatch"
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// onComplete must run exactly once per use, with the fold, before any
// waiter returns.
func TestNumEpisodeOnCompleteOnce(t *testing.T) {
	const np = 3
	e := NewNumEpisode(np, nil)
	for round := 0; round < 5; round++ {
		var calls int // folder-only writes, ordered before every return
		var seen uint64
		var wg sync.WaitGroup
		for pid := 0; pid < np; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				e.Do(pid, Max, NumInt, uint64(int64(pid)), func(r uint64) { calls, seen = calls+1, r })
			}(pid)
		}
		wg.Wait()
		if calls != 1 || seen != np-1 {
			t.Fatalf("round %d: onComplete ran %d times with %d, want once with %d", round, calls, seen, np-1)
		}
	}
}

// A parked waiter must unwind with poison.Abort when the force dies
// instead of waiting for a contribution that will never come.
func TestNumEpisodePoisonWakes(t *testing.T) {
	pc := poison.NewCell()
	e := NewNumEpisode(2, pc)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		e.Do(0, Sum, NumInt, 1, nil)
		done <- nil
	}()
	pc.Poison(&stubErr{})
	v := <-done
	if _, ok := v.(poison.Abort); !ok {
		t.Fatalf("waiter returned %v, want poison.Abort", v)
	}
}

type stubErr struct{}

func (*stubErr) Error() string { return "stub failure" }
