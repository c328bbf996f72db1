package poison

// Tests of the two phases of the shared wait policy (Spin / Wait) that
// only a waiter owning a CPU takes, the relaxed spin and the timed spin:
// when they are taken, when they are skipped, that they observe poison,
// what bounds each, and that they are what keeps a waiter from
// oversleeping a release that is only microseconds away.  Whether the phase ran is asserted through the
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

// settledCell returns the cell of a force of np processes whose first,
// born-crowded waits are behind it: one that takes the relaxed spin
// whenever np <= GOMAXPROCS allows it.
func settledCell(np int) *Cell {
	c := NewCell()
	c.SetProcs(np)
	c.crowd.Store(0)
	return c
}

// trueAfter returns a pred that comes true on its n-th evaluation.
func trueAfter(n int64) (pred func() bool, calls *atomic.Int64) {
	calls = new(atomic.Int64)
	return func() bool { return calls.Add(1) >= n }, calls
}

// TestTimedSpinTakenOnlyWhenNotOversubscribed: the two phases reserved
// for a waiter that owns a CPU — the relaxed spin in front of the policy
// and the timed window behind the yield-spiced budget — are taken
// together or not at all.  A release just past the iteration-bounded
// phases is caught by the timed spin (frozen clock) without sleeping
// after relaxPolls + spinBudget polls; an oversubscribed waiter has
// polled spinBudget times by then, never reads the clock, and finds it
// after one or two parks.
func TestTimedSpinTakenOnlyWhenNotOversubscribed(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gmp, np   int
		bound     bool // cell wired at all
		wantTimed bool
	}{
		{"np2-on-2", 2, 2, true, true},
		{"np1-on-2", 2, 1, true, true},
		{"np8-on-2", 2, 8, true, false},
		{"np3-on-2", 2, 3, true, false},
		{"np1-on-1", 1, 1, true, false},
		{"np2-on-1", 1, 2, true, false},
		{"nil-cell", 2, 2, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.gmp)
			reads := countingClock(t)
			var c *Cell
			if tc.bound {
				c = settledCell(tc.np)
			}
			if c.TimedSpin() != tc.wantTimed {
				t.Fatalf("TimedSpin = %v, want %v", c.TimedSpin(), tc.wantTimed)
			}
			bounded := int64(spinBudget)
			if tc.wantTimed {
				bounded += relaxPolls
			}
			pred, calls := trueAfter(bounded + 3)
			Wait(c, pred)
			if got := reads.Load() > 0; got != tc.wantTimed {
				t.Errorf("clock read %d times, want read = %v", reads.Load(), tc.wantTimed)
			}
			if calls.Load() != bounded+3 {
				t.Errorf("pred evaluated %d times, want %d", calls.Load(), bounded+3)
			}
		})
	}
}

// unreleasedSpin runs Spin on a wait that is never released, under a clock
// on which the wait's first yield — if Spin times one — takes yieldTakes
// and the timed window is over at its first re-read, and reports how many
// polls preceded the first clock read.
func unreleasedSpin(t *testing.T, c *Cell, yieldTakes time.Duration) (firstRead int64) {
	t.Helper()
	pred, calls := trueAfter(1 << 40)
	firstRead = -1
	var now time.Duration
	reads := 0
	withClock(t, func() time.Duration {
		if reads++; reads == 1 {
			firstRead = calls.Load()
		} else if reads == 2 && firstRead < spinBudget {
			now += yieldTakes
		} else {
			now += spinWindow
		}
		return now
	})
	if Spin(c, pred) {
		t.Fatal("Spin reported a release that never happened")
	}
	return firstRead
}

// TestRelaxedSpinIsLiterallyBounded: the relaxed spin is relaxPolls polls
// and not one more, whatever the clock says — the clock is first read
// after it, around the wait's first yield, so the phase that exists to
// keep a 200 ns wait cheap never pays for a time reading.
func TestRelaxedSpinIsLiterallyBounded(t *testing.T) {
	withProcs(t, 2)
	c := settledCell(2)
	if got, want := unreleasedSpin(t, c, 0), int64(relaxPolls+yieldEvery); got != want {
		t.Errorf("clock first read after %d polls, want after the %d of the relaxed spin and the polls before the first yield", got, want)
	}
}

// TestSharedPSkipsRelaxedSpin: a waiter whose first yield took as long as
// a relaxed spin shares its P with whatever ran meanwhile — relaxing there
// only keeps the peer off the CPU — so the next crowdSkip waits on the cell
// go straight to the yielding phases (no relaxed spin, no timed yield: the
// clock is first read by the timed window); the wait after them relaxes
// again, and a quick first yield leaves the relaxed spin on.  A force is
// born in that state: its processes start on one P.
func TestSharedPSkipsRelaxedSpin(t *testing.T) {
	withProcs(t, 2)
	c := NewCell()
	c.SetProcs(2)
	const relaxed, skipped = relaxPolls + yieldEvery, spinBudget
	skipsThenProbes := func(when string) {
		t.Helper()
		for i := 0; i < crowdSkip; i++ {
			if got := unreleasedSpin(t, c, 0); got != skipped {
				t.Fatalf("wait %d %s: clock first read after %d polls, want %d (no relaxed spin)", i, when, got, skipped)
			}
		}
		if got := unreleasedSpin(t, c, crowdYield/2); got != relaxed {
			t.Fatalf("the probe %d waits %s: clock first read after %d polls, want %d", crowdSkip, when, got, relaxed)
		}
	}
	skipsThenProbes("into a new force")
	for i := 0; i < 3; i++ {
		if got := unreleasedSpin(t, c, crowdYield/2); got != relaxed {
			t.Fatalf("wait %d after a quick probe: clock first read after %d polls, want %d", i, got, relaxed)
		}
	}
	if got := unreleasedSpin(t, c, 2*crowdYield); got != relaxed {
		t.Fatalf("the wait that finds its P shared: clock first read after %d polls, want %d", got, relaxed)
	}
	skipsThenProbes("after a slow yield")
}

// TestRelaxedSpinObservesPoisonEveryPoll: a waiter poisoned during its
// k-th poll of the relaxed spin unwinds before the (k+1)-th.
func TestRelaxedSpinObservesPoisonEveryPoll(t *testing.T) {
	withProcs(t, 2)
	reads := countingClock(t)
	for k := int64(1); k <= relaxPolls; k++ {
		c := settledCell(2)
		var calls int64
		func() {
			defer func() {
				if _, ok := recover().(Abort); !ok {
					t.Errorf("poisoned at poll %d: Spin did not unwind with Abort", k)
				}
			}()
			Spin(c, func() bool {
				if calls++; calls == k {
					c.Poison("peer died")
				}
				return false
			})
		}()
		if calls != k {
			t.Errorf("poisoned at poll %d: pred evaluated %d times", k, calls)
		}
	}
	if reads.Load() != 0 {
		t.Errorf("clock read %d times inside the relaxed spin", reads.Load())
	}
}

// TestTimedSpinIsTimeBounded: a release that never comes within the
// window ends the spin at the deadline — Spin reports false after
// polling pred through the whole window and no longer.
func TestTimedSpinIsTimeBounded(t *testing.T) {
	withProcs(t, 2)
	var now time.Duration
	withClock(t, func() time.Duration { now += spinWindow / 10; return now })
	c := settledCell(2)
	pred, calls := trueAfter(1 << 40)
	if Spin(c, pred) {
		t.Fatal("Spin reported a release that never happened")
	}
	// One deadline read, then one read per yieldEvery polls; each read
	// advances a tenth of the window.
	const bounded = relaxPolls + spinBudget
	if got, max := calls.Load(), int64(bounded+10*yieldEvery); got <= bounded || got > max {
		t.Errorf("pred evaluated %d times, want in (%d, %d]", got, bounded, max)
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
