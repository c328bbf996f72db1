package asyncvar

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lock"
)

// within fails the test if op does not return within a few seconds: an
// operation a failed Try left something held for would wait forever.
func within(t *testing.T, what string, op func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); op() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: a failed Try left the variable held", what)
	}
}

// TestFailedTryLeavesCellUnchanged: a Try that finds the variable in the
// wrong state changes nothing — not the state, not the value, and on the
// two-lock realization no lock stays taken — so the operations after it
// behave as if it had never run.  Every lock kind takes part.
func TestFailedTryLeavesCellUnchanged(t *testing.T) {
	for _, impl := range Impls() {
		for _, lk := range lock.Kinds() {
			v := New[int](impl, lock.Factory(lk))
			if _, ok := v.Try(OpConsume, 0); ok {
				t.Fatalf("%v/%v: Consume of an empty variable succeeded", impl, lk)
			}
			if _, ok := v.Try(OpCopy, 0); ok || v.IsFull() {
				t.Fatalf("%v/%v: Copy of an empty variable succeeded, or a failed try filled it", impl, lk)
			}
			within(t, "Produce after failed tries", func() { v.Produce(7) })
			if _, ok := v.Try(OpProduce, 9); ok || !v.IsFull() {
				t.Fatalf("%v/%v: Produce into a full variable succeeded, or a failed try emptied it", impl, lk)
			}
			var got int
			within(t, "Copy and Consume after a failed try", func() { got = v.Copy() + v.Consume() })
			if got != 14 || v.IsFull() {
				t.Errorf("%v/%v: Copy + Consume = %d after a failed Produce of 9, want 14 and empty", impl, lk, got)
			}
		}
	}
}

// TestTryRacesBlocking: try-first and blocking operations on one variable
// from four goroutines — a blocking and a try-first producer, a blocking
// consumer and a try-first one that also copies — transfer every value
// exactly once.  Run under -race at -cpu 1,2,4.
func TestTryRacesBlocking(t *testing.T) {
	const n = 2000
	for _, impl := range Impls() {
		v := New[int](impl, nil)
		var sum atomic.Int64
		var wg sync.WaitGroup
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				v.Produce(i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				if _, ok := v.Try(OpProduce, i); !ok {
					v.Await(OpProduce, i)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sum.Add(int64(v.Consume()))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v.Try(OpCopy, 0)
				x, ok := v.Try(OpConsume, 0)
				if !ok {
					x = v.Await(OpConsume, 0)
				}
				sum.Add(int64(x))
			}
		}()
		wg.Wait()
		if want := int64(n * (n + 1)); sum.Load() != want || v.IsFull() {
			t.Errorf("%v: consumed sum %d, want %d, and the variable empty", impl, sum.Load(), want)
		}
	}
}

// TestFaultSiteFiresOncePerOperation: an operation's fault-injection site
// is hit once, whether its first try succeeded or it waited, so a plan's
// "after=N" keeps counting operations.  The script below runs five
// Produces, five Consumes and two Copies, the second of each kind
// waiting for a partner; each site is armed to fire at the hit after
// those, and must fire at exactly the next operation of its kind.
func TestFaultSiteFiresOncePerOperation(t *testing.T) {
	defer faultinject.Disable()
	later := func(op func()) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(10 * time.Millisecond)
			op()
		}()
		return &wg
	}
	for _, impl := range Impls() {
		plan := faultinject.NewPlan(0)
		for site, hits := range map[string]int{faultinject.AsyncProduce: 5, faultinject.AsyncConsume: 5, faultinject.AsyncCopy: 2} {
			plan.Add(faultinject.Injection{Site: site, Kind: faultinject.Delay, Delay: time.Microsecond, After: hits, Pid: -1})
		}
		faultinject.Enable(plan)
		v := New[int](impl, nil)
		v.Produce(1)
		v.Copy()
		v.Consume()
		wg := later(func() { v.Produce(2) })
		v.Consume() // waits for the Produce
		wg.Wait()
		wg = later(func() { v.Produce(3) })
		v.Copy() // waits for the Produce
		wg.Wait()
		v.Consume()
		v.Produce(4)
		wg = later(func() { v.Consume() })
		v.Produce(5) // waits for the Consume
		wg.Wait()
		v.Consume()
		for _, site := range []string{faultinject.AsyncProduce, faultinject.AsyncConsume, faultinject.AsyncCopy} {
			if plan.Fired(site) {
				t.Errorf("%v: %s fired within the script: an operation hit it twice", impl, site)
			}
		}
		v.Produce(6)
		v.Copy()
		v.Consume()
		for _, site := range []string{faultinject.AsyncProduce, faultinject.AsyncConsume, faultinject.AsyncCopy} {
			if !plan.Fired(site) {
				t.Errorf("%v: %s did not fire at the operation after the script: an operation missed it", impl, site)
			}
		}
		faultinject.Disable()
	}
}
