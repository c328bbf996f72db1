// The tests of the one collective, from both ends: the Join itself, driven
// by goroutines over test-owned slots (what internal/core does with the
// force's), and both strategies through a core.Force — an external test
// package may import core, which imports reduce.
package reduce_test

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/poison"
	"repro/internal/reduce"
)

// numEpisode is a Join with bit slots: one use folds the contributions in
// pid order in the last arrival, which then runs onComplete alone.
type numEpisode struct {
	join   *reduce.Join
	slots  []uint64
	result uint64
}

func newNumEpisode(np int, pc *poison.Cell) *numEpisode {
	return &numEpisode{join: reduce.NewJoin(np, pc), slots: make([]uint64, np)}
}

func (e *numEpisode) do(pid int, op reduce.Op, k reduce.NumKind, x uint64, onComplete func(uint64)) uint64 {
	e.slots[pid] = x
	if e.join.Arrive() {
		acc := e.slots[0]
		for _, s := range e.slots[1:] {
			acc = reduce.CombineNum(op, k, acc, s)
		}
		e.result = acc
		if onComplete != nil {
			onComplete(acc)
		}
		e.join.Release()
	} else {
		e.join.Wait()
	}
	return e.result
}

// numJoinOnce drives one use with len(vals) goroutine processes.
func numJoinOnce(e *numEpisode, op reduce.Op, k reduce.NumKind, vals []uint64) []uint64 {
	out := make([]uint64, len(vals))
	var wg sync.WaitGroup
	for pid := range vals {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			out[pid] = e.do(pid, op, k, vals[pid], nil)
		}(pid)
	}
	wg.Wait()
	return out
}

// onForce runs body once in every process of a fresh force of np under
// strategy k and returns what each process returned.
func onForce[T any](k reduce.Kind, np int, body func(p *core.Proc) T) []T {
	f := core.New(np, core.WithReduce(k))
	defer f.Close()
	out := make([]T, np)
	f.Run(func(p *core.Proc) { out[p.ID()] = body(p) })
	return out
}

func TestSumAllKindsAllNP(t *testing.T) {
	for _, k := range reduce.Kinds() {
		for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
			want := np * (np + 1) / 2
			for pid, g := range onForce(k, np, func(p *core.Proc) int { return core.Gsum(p, p.ID()+1) }) {
				if g != want {
					t.Errorf("%s np=%d pid=%d: sum = %d, want %d", k, np, pid, g, want)
				}
			}
		}
	}
}

func TestMaxMinProd(t *testing.T) {
	const np = 6
	for _, k := range reduce.Kinds() {
		type trio struct{ max, min, prod int }
		for _, g := range onForce(k, np, func(p *core.Proc) trio {
			return trio{core.Gmax(p, -10+p.ID()), core.Gmin(p, 100-p.ID()), core.Gprod(p, p.ID()+1)}
		}) {
			if g != (trio{-5, 95, 720}) {
				t.Errorf("%s: max, min, prod = %+v, want {-5 95 720}", k, g)
			}
		}
	}
}

func TestBoolAndOr(t *testing.T) {
	// The fold itself, on the 0/1 words a LOGICAL travels as.
	for a := uint64(0); a < 2; a++ {
		for b := uint64(0); b < 2; b++ {
			if got := reduce.CombineNum(reduce.And, reduce.NumInt, a, b); got != a&b {
				t.Errorf("CombineNum(And, %d, %d) = %d", a, b, got)
			}
			if got := reduce.CombineNum(reduce.Or, reduce.NumInt, a, b); got != a|b {
				t.Errorf("CombineNum(Or, %d, %d) = %d", a, b, got)
			}
		}
	}
	const np = 5
	for _, k := range reduce.Kinds() {
		type pair struct{ and, or bool }
		for _, g := range onForce(k, np, func(p *core.Proc) pair {
			return pair{core.Gand(p, p.ID() != 3), core.Gor(p, p.ID() == 3)}
		}) {
			if g.and || !g.or {
				t.Errorf("%s: and, or = %v, %v; want false, true", k, g.and, g.or)
			}
		}
	}
}

func TestFloatReduction(t *testing.T) {
	const np = 8
	for _, k := range reduce.Kinds() {
		for _, g := range onForce(k, np, func(p *core.Proc) float64 { return core.Gsum(p, 0.5) }) {
			if g != 4.0 {
				t.Errorf("%s: float sum = %g, want 4.0", k, g)
			}
		}
	}
}

func TestCustomStructReduction(t *testing.T) {
	// Argmax over a struct element type: a custom combine shares the
	// collective, its contributions boxed in the force's slots.
	type best struct {
		val float64
		idx int
	}
	combine := func(a, b best) best {
		if b.val > a.val || (b.val == a.val && b.idx < a.idx) {
			return b
		}
		return a
	}
	const np = 7
	for _, k := range reduce.Kinds() {
		got := onForce(k, np, func(p *core.Proc) best {
			return core.Reduce(p, best{val: float64((p.ID() * 3) % 7), idx: p.ID()}, combine)
		})
		// pid contributions: vals 0,3,6,2,5,1,4 -> max 6 at pid 2.
		for _, g := range got {
			if g.idx != 2 || g.val != 6 {
				t.Errorf("%s: argmax = %+v, want {6 2}", k, g)
			}
		}
	}
}

// The completion hook runs exactly once per use, in the last arrival, after
// every process has arrived and before any is released.
func TestOnCompleteRunsOnceBeforeRelease(t *testing.T) {
	const np = 8
	e := newNumEpisode(np, nil)
	for round := 0; round < 20; round++ {
		var arrived, released atomic.Int64
		calls, early := 0, 0 // written by the completing process only
		var sawResult uint64
		var wg sync.WaitGroup
		for pid := 0; pid < np; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				arrived.Add(1)
				e.do(pid, reduce.Sum, reduce.NumInt, 1, func(r uint64) {
					if arrived.Load() != np || released.Load() != 0 {
						early++
					}
					calls, sawResult = calls+1, r
				})
				released.Add(1)
			}(pid)
		}
		wg.Wait()
		// Unsynchronized reads: -race flags them if the hook was not
		// ordered before every release.
		if calls != 1 || early != 0 || sawResult != np {
			t.Fatalf("round %d: hook ran %d times (%d not alone) and saw %d, want once with %d", round, calls, early, sawResult, np)
		}
	}
}

func TestSlotsDeterministicOrder(t *testing.T) {
	// The slots strategy folds in pid order, so a non-commutative probe
	// combiner observes exactly the sequence 1,...,np-1.
	const np = 8
	f := core.New(np, core.WithReduce(reduce.PrivateSlots))
	defer f.Close()
	for trial := 0; trial < 20; trial++ {
		var order []int // appended to by the completing process only
		f.Run(func(p *core.Proc) {
			core.Reduce(p, p.ID(), func(a, b int) int {
				order = append(order, b)
				return a
			})
		})
		if len(order) != np-1 {
			t.Fatalf("combine ran %d times, want %d", len(order), np-1)
		}
		for i, v := range order {
			if v != i+1 {
				t.Fatalf("trial %d: combine order %v, want pids in order", trial, order)
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range reduce.Kinds() {
		got, err := reduce.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := reduce.ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus")
	}
}

func TestManyEpisodesUnderContention(t *testing.T) {
	// Stress: a convergence-loop shape — back-to-back reductions on one
	// force, results checked every round, under both strategies.  Run
	// under -race this exercises the publish/wait ordering hard.
	const np, rounds = 4, 300
	for _, k := range reduce.Kinds() {
		for pid, bad := range onForce(k, np, func(p *core.Proc) int {
			for r := 0; r < rounds; r++ {
				if core.Gsum(p, r) != np*r {
					return r + 1
				}
			}
			return 0
		}) {
			if bad != 0 {
				t.Errorf("%s pid %d: wrong sum in round %d", k, pid, bad-1)
			}
		}
	}
}

// A REAL fold in pid order is bit-identical to the sequential left fold
// of the contributions, on the Join over test-owned slots and through a
// force under the slots strategy.
func TestNumEpisodeMatchesSlots(t *testing.T) {
	const np = 8
	cases := []struct {
		op   reduce.Op
		vals []float64
		seq  func(a, b float64) float64
		api  func(p *core.Proc, x float64) float64
	}{
		{reduce.Sum, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
			func(a, b float64) float64 { return a + b }, core.Gsum[float64]},
		{reduce.Prod, []float64{1.1, 0.9, 2.5, 0.3, 1.7, 0.01, 40, 3},
			func(a, b float64) float64 { return a * b }, core.Gprod[float64]},
		{reduce.Max, []float64{-1, 5, 3, 5, 2, -8, 4.5, 0}, math.Max, core.Gmax[float64]},
		{reduce.Min, []float64{-1, 5, 3, 5, 2, -8, 4.5, 0}, math.Min, core.Gmin[float64]},
	}
	for _, tc := range cases {
		want := tc.vals[0]
		for _, v := range tc.vals[1:] {
			want = tc.seq(want, v)
		}
		bits := make([]uint64, np)
		for i, v := range tc.vals {
			bits[i] = math.Float64bits(v)
		}
		for pid, got := range numJoinOnce(newNumEpisode(np, nil), tc.op, reduce.NumReal, bits) {
			if got != math.Float64bits(want) {
				t.Errorf("op %v pid %d: join folded %x, sequential fold %x", tc.op, pid, got, math.Float64bits(want))
			}
		}
		for pid, got := range onForce(reduce.PrivateSlots, np, func(p *core.Proc) float64 { return tc.api(p, tc.vals[p.ID()]) }) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("op %v pid %d: force folded %x, sequential fold %x", tc.op, pid, math.Float64bits(got), math.Float64bits(want))
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
	want := map[reduce.Op]int64{reduce.Sum: 5, reduce.Prod: 42, reduce.Max: 7, reduce.Min: -3}
	for op, w := range want {
		for pid, g := range numJoinOnce(newNumEpisode(np, nil), op, reduce.NumInt, vals) {
			if int64(g) != w {
				t.Errorf("op %v pid %d: got %d, want %d", op, pid, int64(g), w)
			}
		}
	}
}

// Reuse: a Join rearms itself after every process departs, so one pair
// alternated serves an arbitrarily long run of uses — 10 000 here, with
// more processes than the box has CPUs.
func TestNumEpisodeReuseAlternating(t *testing.T) {
	const np, rounds = 4, 10000
	eps := [2]*numEpisode{newNumEpisode(np, nil), newNumEpisode(np, nil)}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for pid := 0; pid < np; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := int64(eps[r&1].do(pid, reduce.Sum, reduce.NumInt, uint64(int64(pid+r)), nil))
				if got != int64(np*r+(np-1)*np/2) {
					bad.Add(1)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d processes saw a wrong fold", bad.Load())
	}
}

// The hook of a reused Join runs exactly once per use, with that use's
// fold, before any waiter returns.
func TestNumEpisodeOnCompleteOnce(t *testing.T) {
	const np = 3
	e := newNumEpisode(np, nil)
	for round := 0; round < 5; round++ {
		var calls int // completing-process-only writes, ordered before every return
		var seen uint64
		var wg sync.WaitGroup
		for pid := 0; pid < np; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				e.do(pid, reduce.Max, reduce.NumInt, uint64(int64(pid)), func(r uint64) { calls, seen = calls+1, r })
			}(pid)
		}
		wg.Wait()
		if calls != 1 || seen != np-1 {
			t.Fatalf("round %d: onComplete ran %d times with %d, want once with %d", round, calls, seen, np-1)
		}
	}
}

// A parked waiter must unwind with poison.Abort when the force dies
// instead of waiting for an arrival that will never come.
func TestNumEpisodePoisonWakes(t *testing.T) {
	pc := poison.NewCell()
	e := newNumEpisode(2, pc)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		e.do(0, reduce.Sum, reduce.NumInt, 1, nil)
	}()
	pc.Poison(errors.New("stub failure"))
	if v := <-done; !isAbort(v) {
		t.Fatalf("waiter returned %v, want poison.Abort", v)
	}
}

func isAbort(v any) bool {
	_, ok := v.(poison.Abort)
	return ok
}

// TestPoisonWakesIncompleteEpisode: under every strategy, contributors
// waiting on a combination that can never complete (one contribution
// missing) unwind with poison.Abort when the force is poisoned.
func TestPoisonWakesIncompleteEpisode(t *testing.T) {
	for _, k := range reduce.Kinds() {
		for _, np := range []int{2, 4, 7} {
			t.Run(k.String(), func(t *testing.T) {
				f := core.New(np, core.WithReduce(k))
				defer f.Close()
				died := errors.New("process died")
				poisoned := make(chan struct{})
				unwound := make(chan any, np)
				ran := make(chan any, 1)
				go func() {
					defer func() { ran <- recover() }()
					f.Run(func(p *core.Proc) {
						if p.ID() == np-1 { // never contributes
							<-poisoned
							return
						}
						defer func() {
							r := recover()
							unwound <- r
							panic(r)
						}()
						core.Gsum(p, 1)
					})
				}()
				time.Sleep(10 * time.Millisecond)
				f.Fault().Poison(died)
				close(poisoned)
				for i := 0; i < np-1; i++ {
					select {
					case r := <-unwound:
						if !isAbort(r) {
							t.Fatalf("np=%d: contributor unwound with %v (%T), want poison.Abort", np, r, r)
						}
					case <-time.After(30 * time.Second):
						t.Fatalf("np=%d: contributor still blocked after poison", np)
					}
				}
				if r := <-ran; r != died {
					t.Fatalf("np=%d: Run ended with %v, want the poison value", np, r)
				}
			})
		}
	}
}

// TestPoisonBoundCompleteEpisodeWorks: a Join bound to an unpoisoned cell
// combines normally.
func TestPoisonBoundCompleteEpisodeWorks(t *testing.T) {
	const np = 5
	vals := []uint64{0, 1, 2, 3, 4}
	for pid, v := range numJoinOnce(newNumEpisode(np, poison.NewCell()), reduce.Sum, reduce.NumInt, vals) {
		if v != 10 {
			t.Fatalf("pid %d: fold %d, want 10", pid, v)
		}
	}
}
