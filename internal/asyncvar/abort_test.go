package asyncvar

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/poison"
)

// expectAbort runs op in a goroutine and asserts it unwinds with
// poison.Abort after the cell is poisoned.
func expectAbort(t *testing.T, c *poison.Cell, op func()) {
	t.Helper()
	unwound := make(chan any, 1)
	go func() {
		defer func() { unwound <- recover() }()
		op()
	}()
	time.Sleep(5 * time.Millisecond)
	c.Poison(errors.New("process died"))
	select {
	case r := <-unwound:
		if _, ok := r.(poison.Abort); !ok {
			t.Fatalf("blocked op unwound with %v (%T), want poison.Abort", r, r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("blocked op did not wake on poison")
	}
}

// TestPoisonWakesBlockedOps: for every implementation, a Consume/Copy
// on an empty variable and a Produce on a full one unwind on poison.
func TestPoisonWakesBlockedOps(t *testing.T) {
	for _, impl := range Impls() {
		t.Run(impl.String()+"/consume-empty", func(t *testing.T) {
			c := poison.NewCell()
			v := New[int](impl, nil)
			SetPoison(v, c)
			expectAbort(t, c, func() { v.Consume() })
		})
		t.Run(impl.String()+"/copy-empty", func(t *testing.T) {
			c := poison.NewCell()
			v := New[int](impl, nil)
			SetPoison(v, c)
			expectAbort(t, c, func() { v.Copy() })
		})
		t.Run(impl.String()+"/produce-full", func(t *testing.T) {
			c := poison.NewCell()
			v := New[int](impl, nil)
			SetPoison(v, c)
			v.Produce(1)
			expectAbort(t, c, func() { v.Produce(2) })
		})
	}
}

// TestPoisonBoundTransferStillWorks: a bound but unpoisoned variable
// behaves exactly like an unbound one.
func TestPoisonBoundTransferStillWorks(t *testing.T) {
	for _, impl := range Impls() {
		c := poison.NewCell()
		v := New[int](impl, nil)
		SetPoison(v, c)
		go v.Produce(42)
		if got := v.Consume(); got != 42 {
			t.Fatalf("%s: Consume = %d, want 42", impl, got)
		}
		if v.IsFull() {
			t.Fatalf("%s: full after Consume", impl)
		}
	}
}

// TestArraySetPoison: array cells are bound collectively.
func TestArraySetPoison(t *testing.T) {
	for _, impl := range Impls() {
		c := poison.NewCell()
		a := NewArray[int](impl, nil, 4)
		a.SetPoison(c)
		expectAbort(t, c, func() { a.Consume(2) })
	}
}

// TestBlockedOpsUnwindWithinARelayPark: a Produce on a full cell and a
// Consume on an empty one leave within about one relay park interval of
// the poisoning — an internal failure and an external cancel alike.  The
// bound asserted is a hundred times that interval (the median of several
// trials: one trial is at the mercy of the box's other tenants).
func TestBlockedOpsUnwindWithinARelayPark(t *testing.T) {
	ops := map[string]func(v V[int]) func(){
		"produce-full":  func(v V[int]) func() { v.Produce(1); return func() { v.Produce(2) } },
		"consume-empty": func(v V[int]) func() { return func() { v.Consume() } },
	}
	causes := map[string]func(c *poison.Cell){
		"failure": func(c *poison.Cell) { c.Poison(errors.New("process died")) },
		"cancel":  func(c *poison.Cell) { c.PoisonExternal(context.Canceled) },
	}
	for _, impl := range Impls() {
		for opName, mk := range ops {
			for causeName, poisonIt := range causes {
				t.Run(impl.String()+"/"+opName+"/"+causeName, func(t *testing.T) {
					lat := make([]time.Duration, 9)
					for trial := range lat {
						c := poison.NewCell()
						v := New[int](impl, nil)
						SetPoison(v, c)
						op := mk(v)
						unwound := make(chan any, 1)
						go func() {
							defer func() { unwound <- recover() }()
							op()
						}()
						time.Sleep(2 * time.Millisecond) // let the waiter reach its park ladder
						start := time.Now()
						poisonIt(c)
						select {
						case r := <-unwound:
							if _, ok := r.(poison.Abort); !ok {
								t.Fatalf("blocked op unwound with %v (%T), want poison.Abort", r, r)
							}
						case <-time.After(30 * time.Second):
							t.Fatal("blocked op did not wake")
						}
						lat[trial] = time.Since(start)
					}
					sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
					if med := lat[len(lat)/2]; med > 2*time.Millisecond {
						t.Errorf("median unwind latency %v, want within a relay park (20µs) give or take the scheduler: < 2ms", med)
					}
				})
			}
		}
	}
}

// TestCopyUnderPoisonLeavesFull: Copy holds the cell across no wait, so a
// force poisoned while Copies are in flight finds the variable full and
// its value intact afterwards, whichever Copies completed and whichever
// unwound.
func TestCopyUnderPoisonLeavesFull(t *testing.T) {
	for _, impl := range Impls() {
		c := poison.NewCell()
		v := New[int](impl, nil)
		SetPoison(v, c)
		v.Produce(42)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(poison.Abort); !ok {
							t.Errorf("%v: Copy unwound with %v (%T)", impl, r, r)
						}
					}
				}()
				for i := 0; i < 2000; i++ {
					if got := v.Copy(); got != 42 {
						t.Errorf("%v: Copy = %d, want 42", impl, got)
						return
					}
				}
			}()
		}
		c.Poison(errors.New("process died"))
		wg.Wait()
		if !v.IsFull() {
			t.Fatalf("%v: a Copy interrupted by poison left the variable empty", impl)
		}
		SetPoison(v, nil)
		if got := v.Consume(); got != 42 {
			t.Fatalf("%v: value after poisoned Copies = %d, want 42", impl, got)
		}
	}
}
