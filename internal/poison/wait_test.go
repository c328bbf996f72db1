package poison

// Tests of the shared wait policy's timed spin (Spin / Wait): when it is
// taken, when it is skipped, that it observes poison, and that it is
// what keeps a waiter from oversleeping a release that is only
// microseconds away.  Whether the phase ran is asserted through the
// injected clock (it is the phase's only reader), never through wall
// time; only the late-release test measures time, and takes the best of
// many trials.

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// withClock installs fn as the policy's clock for the test.
func withClock(t *testing.T, fn func() time.Duration) {
	t.Helper()
	old := clock
	clock = fn
	t.Cleanup(func() { clock = old })
}

// withProcs runs the test at GOMAXPROCS = n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// countingClock counts reads of a frozen clock: the timed spin, once
// entered, can then only end by pred coming true or by poison.
func countingClock(t *testing.T) *atomic.Int64 {
	var reads atomic.Int64
	withClock(t, func() time.Duration { reads.Add(1); return 0 })
	return &reads
}

// trueAfter returns a pred that comes true on its n-th evaluation.
func trueAfter(n int64) (pred func() bool, calls *atomic.Int64) {
	calls = new(atomic.Int64)
	return func() bool { return calls.Add(1) >= n }, calls
}

func TestTimedSpinTakenOnlyWhenNotOversubscribed(t *testing.T) {
	for _, tc := range []struct {
		name       string
		gmp, np    int
		bound      bool // cell wired at all
		wantTimed  bool
		wantClocks bool
	}{
		{"np2-on-2", 2, 2, true, true, true},
		{"np1-on-2", 2, 1, true, true, true},
		{"np8-on-2", 2, 8, true, false, false},
		{"np3-on-2", 2, 3, true, false, false},
		{"np1-on-1", 1, 1, true, false, false},
		{"np2-on-1", 1, 2, true, false, false},
		{"nil-cell", 2, 2, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.gmp)
			reads := countingClock(t)
			var c *Cell
			if tc.bound {
				c = NewCell()
				c.SetProcs(tc.np)
			}
			if c.TimedSpin() != tc.wantTimed {
				t.Fatalf("TimedSpin = %v, want %v", c.TimedSpin(), tc.wantTimed)
			}
			// True just past the iteration-bounded spin: the timed spin
			// (frozen clock) catches it without sleeping, the ladder
			// after one or two parks.
			pred, calls := trueAfter(spinBudget + 3)
			Wait(c, pred)
			if got := reads.Load() > 0; got != tc.wantClocks {
				t.Errorf("clock read %d times, want read = %v", reads.Load(), tc.wantClocks)
			}
			if calls.Load() != spinBudget+3 {
				t.Errorf("pred evaluated %d times, want %d", calls.Load(), spinBudget+3)
			}
		})
	}
}

// TestTimedSpinIsTimeBounded: a release that never comes within the
// window ends the spin at the deadline — Spin reports false after
// polling pred through the whole window and no longer.
func TestTimedSpinIsTimeBounded(t *testing.T) {
	withProcs(t, 2)
	var now time.Duration
	withClock(t, func() time.Duration { now += spinWindow / 10; return now })
	c := NewCell()
	c.SetProcs(2)
	pred, calls := trueAfter(1 << 40)
	if Spin(c, pred) {
		t.Fatal("Spin reported a release that never happened")
	}
	// One deadline read, then one read per yieldEvery polls; each read
	// advances a tenth of the window.
	if got, max := calls.Load(), int64(spinBudget+10*yieldEvery); got <= spinBudget || got > max {
		t.Errorf("pred evaluated %d times, want in (%d, %d]", got, spinBudget, max)
	}
}

// TestPoisonDuringTimedSpin: a waiter inside the timed spin (the clock
// is frozen, so it cannot leave by deadline) unwinds with Abort as soon
// as the cell is poisoned.
func TestPoisonDuringTimedSpin(t *testing.T) {
	withProcs(t, 2)
	reads := countingClock(t)
	c := NewCell()
	c.SetProcs(2)
	unwound := make(chan any, 1)
	go func() {
		defer func() { unwound <- recover() }()
		Wait(c, func() bool { return false })
	}()
	for reads.Load() == 0 { // wait until the timed spin is running
		runtime.Gosched()
	}
	c.Poison("peer died")
	select {
	case r := <-unwound:
		if _, ok := r.(Abort); !ok {
			t.Fatalf("waiter unwound with %v (%T), want Abort", r, r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still spinning after poison")
	}
}

// TestLateReleaseDoesNotOversleep: a release 50 or 150 µs away reaches
// a spinning waiter within 20 µs, where the sleep ladder alone would
// add a park/wake round trip.  Needs a CPU per side; the median of many
// trials, because one trial is at the mercy of the box's other tenants.
func TestLateReleaseDoesNotOversleep(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	for _, late := range []time.Duration{50 * time.Microsecond, 150 * time.Microsecond} {
		c := NewCell()
		c.SetProcs(2)
		lat := make([]time.Duration, 101)
		for trial := range lat {
			var flag atomic.Bool
			var releasedAt atomic.Int64
			ready := make(chan struct{})
			go func() {
				<-ready
				for start := time.Now(); time.Since(start) < late; {
				}
				releasedAt.Store(int64(clock()))
				flag.Store(true)
			}()
			close(ready)
			Wait(c, flag.Load)
			lat[trial] = clock() - time.Duration(releasedAt.Load())
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		t.Logf("release %v late: wake latency p50 %v, p90 %v", late, lat[50], lat[90])
		if lat[50] >= 20*time.Microsecond {
			t.Errorf("release %v late: median wake latency %v, want < 20µs", late, lat[50])
		}
	}
}
