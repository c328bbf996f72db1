package barrier

// The barrier side of the shared wait policy (internal/poison): a late
// peer releases a spinning waiter promptly when every process has a CPU,
// the timed spin is skipped when the force is oversubscribed, and the
// whole kind matrix completes either way.

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/poison"
)

// busy burns d of CPU time without yielding: the late peer's "work".
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// lateArrival runs episodes two-process episodes of b in which pid 1
// arrives skew after pid 0, and returns pid 0's release latencies: the
// time from pid 1's arrival to pid 0's return from Sync.
func lateArrival(b Barrier, skew time.Duration, episodes int) []time.Duration {
	lat := make([]time.Duration, episodes)
	var arrived atomic.Int64
	base := time.Now()
	runForce(2, func(pid int) {
		for ep := 0; ep < episodes; ep++ {
			if pid == 1 {
				busy(skew)
				arrived.Store(int64(time.Since(base)))
			}
			b.Sync(pid, nil)
			if pid == 0 {
				lat[ep] = time.Since(base) - time.Duration(arrived.Load())
			}
			// A second, unskewed episode keeps pid 1 from storing the
			// next arrival time before pid 0 has read this one.
			b.Sync(pid, nil)
		}
	})
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// TestLateArrivalReleasesSpinningWaiter: with np <= GOMAXPROCS, a peer
// arriving 50 or 150 µs late finds the waiter still on its CPU: the
// median release latency stays under 20 µs for every kind.
func TestLateArrivalReleasesSpinningWaiter(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs")
	}
	for _, k := range Kinds() {
		for _, skew := range []time.Duration{50 * time.Microsecond, 150 * time.Microsecond} {
			c := poison.NewCell()
			c.SetProcs(2)
			b := New(k, 2, nil)
			SetPoison(b, c)
			lat := lateArrival(b, skew, 101)
			t.Logf("%s skew %v: release latency p50 %v p90 %v", k, skew, lat[50], lat[90])
			if lat[50] >= 20*time.Microsecond {
				t.Errorf("%s skew %v: median release latency %v, want < 20µs", k, skew, lat[50])
			}
		}
	}
}

// TestOversubscribedSkipsTimedSpin: np=8 on two CPUs, and anything on
// one CPU, must not take the timed spin (the cell says so; the policy's
// own tests pin that the clock is then never read) — and every kind
// still completes its episodes, sections included.
func TestOversubscribedSkipsTimedSpin(t *testing.T) {
	for _, gmp := range []int{1, 2} {
		old := runtime.GOMAXPROCS(gmp)
		for _, k := range Kinds() {
			const np, episodes = 8, 40
			c := poison.NewCell()
			c.SetProcs(np)
			if c.TimedSpin() {
				t.Fatalf("GOMAXPROCS=%d np=%d: timed spin enabled", gmp, np)
			}
			b := New(k, np, nil)
			SetPoison(b, c)
			var sections atomic.Int64
			runForce(np, func(pid int) {
				for ep := 0; ep < episodes; ep++ {
					b.Sync(pid, func() { sections.Add(1) })
				}
			})
			if sections.Load() != episodes {
				t.Errorf("GOMAXPROCS=%d %s: %d sections ran, want %d", gmp, k, sections.Load(), episodes)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// BenchmarkBarrierLateArrival is the wait policy's committed row: np=2,
// the paper's two-lock barrier, pid 1 arriving skew late every episode.
// "timed" is the policy as the runtime wires it at np <= GOMAXPROCS;
// "park" is the same barrier with the timed spin off (the oversubscribed
// path).  release-µs is the median time from the late arrival to the
// waiter's return — what the policy is for; ns/op includes the skew.  The
// skews up to 3 µs are the window the relaxed spin owns: a waiter under
// the timed policy meets them without entering the Go scheduler.
func BenchmarkBarrierLateArrival(b *testing.B) {
	for _, policy := range []string{"timed", "park"} {
		for _, skew := range []time.Duration{0, 200 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
			50 * time.Microsecond, 150 * time.Microsecond, 500 * time.Microsecond} {
			b.Run(fmt.Sprintf("%s/skew=%gus", policy, float64(skew)/1e3), func(b *testing.B) {
				c := poison.NewCell()
				if policy == "timed" {
					c.SetProcs(2)
				}
				bar := New(TwoLock, 2, nil)
				SetPoison(bar, c)
				b.ResetTimer()
				lat := lateArrival(bar, skew, b.N)
				b.ReportMetric(float64(lat[len(lat)/2])/1e3, "release-µs")
			})
		}
	}
}
