package barrier

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/lock"
)

// runForce launches n goroutines as force processes and waits for all.
func runForce(n int, body func(pid int)) {
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			body(pid)
		}(p)
	}
	wg.Wait()
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind(nope) succeeded")
	}
	if got := Kind(77).String(); got != "barrier.Kind(77)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with n=0 did not panic")
		}
	}()
	New(TwoLock, 0, nil)
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with unknown kind did not panic")
		}
	}()
	New(Kind(42), 4, nil)
}

// TestRendezvous checks the fundamental barrier property over many
// episodes: after episode e, every process observes every other process's
// episode-e write.
func TestRendezvous(t *testing.T) {
	const (
		np       = 7
		episodes = 50
	)
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			b := New(k, np, lock.Factory(lock.TTAS))
			if b.N() != np {
				t.Fatalf("N() = %d, want %d", b.N(), np)
			}
			var stage [np]atomic.Int64
			var failed atomic.Bool
			runForce(np, func(pid int) {
				rng := rand.New(rand.NewSource(int64(pid)))
				for e := 1; e <= episodes; e++ {
					// Random skew before announcing arrival.
					for i := 0; i < rng.Intn(200); i++ {
						runtime.Gosched()
					}
					stage[pid].Store(int64(e))
					b.Sync(pid, nil)
					for q := 0; q < np; q++ {
						if got := stage[q].Load(); got < int64(e) {
							failed.Store(true)
						}
					}
					b.Sync(pid, nil) // separate read phase from next write
				}
			})
			if failed.Load() {
				t.Error("a process passed the barrier before all had arrived")
			}
		})
	}
}

// TestSectionRunsExactlyOnce verifies the Force barrier-section semantics:
// per episode the section runs exactly once, and every process observes its
// effect after release.
func TestSectionRunsExactlyOnce(t *testing.T) {
	const (
		np       = 6
		episodes = 40
	)
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			b := New(k, np, lock.Factory(lock.TTAS))
			var sectionRuns atomic.Int64
			var wrong atomic.Int64
			runForce(np, func(pid int) {
				for e := 1; e <= episodes; e++ {
					b.Sync(pid, func() { sectionRuns.Add(1) })
					if got := sectionRuns.Load(); got != int64(e) {
						wrong.Add(1)
					}
					b.Sync(pid, nil)
				}
			})
			if got := sectionRuns.Load(); got != episodes {
				t.Errorf("section ran %d times, want %d", got, episodes)
			}
			if w := wrong.Load(); w != 0 {
				t.Errorf("%d post-barrier observations saw a wrong section count", w)
			}
		})
	}
}

// TestSectionExclusion verifies no process leaves the barrier while the
// section is still executing.
func TestSectionExclusion(t *testing.T) {
	const np = 5
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			b := New(k, np, lock.Factory(lock.System))
			var inSection atomic.Bool
			var violations atomic.Int64
			runForce(np, func(pid int) {
				for e := 0; e < 25; e++ {
					b.Sync(pid, func() {
						inSection.Store(true)
						for i := 0; i < 100; i++ {
							runtime.Gosched()
						}
						inSection.Store(false)
					})
					if inSection.Load() {
						violations.Add(1)
					}
					b.Sync(pid, nil)
				}
			})
			if v := violations.Load(); v != 0 {
				t.Errorf("%d processes escaped while the section ran", v)
			}
		})
	}
}

// TestSingleProcess exercises the n=1 degenerate force.
func TestSingleProcess(t *testing.T) {
	for _, k := range Kinds() {
		b := New(k, 1, nil)
		ran := 0
		for e := 0; e < 10; e++ {
			b.Sync(0, func() { ran++ })
		}
		if ran != 10 {
			t.Errorf("%v: section ran %d times, want 10", k, ran)
		}
	}
}

// TestAwkwardSizes runs non-power-of-two and prime force sizes through the
// log-depth algorithms.
func TestAwkwardSizes(t *testing.T) {
	for _, np := range []int{2, 3, 5, 9, 13, 17} {
		for _, k := range Kinds() {
			b := New(k, np, lock.Factory(lock.TAS))
			var hits atomic.Int64
			runForce(np, func(pid int) {
				for e := 0; e < 10; e++ {
					b.Sync(pid, func() { hits.Add(1) })
				}
			})
			if got := hits.Load(); got != 10 {
				t.Errorf("%v np=%d: section ran %d times, want 10", k, np, got)
			}
		}
	}
}

// TestTwoLockWithEveryLockKind is the A1 ablation's correctness side: the
// paper's barrier must work over every lock category.
func TestTwoLockWithEveryLockKind(t *testing.T) {
	const np = 6
	for _, lk := range lock.Kinds() {
		lk := lk
		t.Run(lk.String(), func(t *testing.T) {
			t.Parallel()
			b := NewTwoLock(np, lock.Factory(lk))
			var count atomic.Int64
			runForce(np, func(pid int) {
				for e := 0; e < 30; e++ {
					count.Add(1)
					b.Sync(pid, nil)
					if count.Load()%np != 0 {
						t.Errorf("barrier leaked: count %d not a multiple of np", count.Load())
					}
					b.Sync(pid, nil)
				}
			})
		})
	}
}

func TestWaitHelper(t *testing.T) {
	b := New(CentralSense, 3, nil)
	var total atomic.Int64
	runForce(3, func(pid int) {
		total.Add(1)
		Wait(b, pid)
		if total.Load() != 3 {
			t.Error("Wait released before all arrived")
		}
	})
}

// Property: for random (kind, np, episodes), a shared counter incremented
// once per process per episode always reads np*e at every post-barrier
// point.
func TestQuickBarrierCounting(t *testing.T) {
	prop := func(kindIdx, npRaw, epRaw uint8) bool {
		kinds := Kinds()
		k := kinds[int(kindIdx)%len(kinds)]
		np := int(npRaw)%8 + 1
		episodes := int(epRaw)%12 + 1
		b := New(k, np, lock.Factory(lock.Combined))
		var counter atomic.Int64
		ok := atomic.Bool{}
		ok.Store(true)
		runForce(np, func(pid int) {
			for e := 1; e <= episodes; e++ {
				counter.Add(1)
				b.Sync(pid, nil)
				if counter.Load() != int64(np*e) {
					ok.Store(false)
				}
				b.Sync(pid, nil)
			}
		})
		return ok.Load()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// BenchmarkBarrierEpisode is the barrier algorithms' committed row (the
// paper's T2, README "Which variants exist"): the cost of one episode on
// plain goroutines, every algorithm over TTAS locks at np 1, 2 and 4, one
// op = one episode.
func BenchmarkBarrierEpisode(b *testing.B) {
	for _, k := range Kinds() {
		for _, np := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/np=%d", k, np), func(b *testing.B) {
				bar := New(k, np, lock.Factory(lock.TTAS))
				b.ResetTimer()
				runForce(np, func(pid int) {
					for e := 0; e < b.N; e++ {
						bar.Sync(pid, nil)
					}
				})
			})
		}
	}
}
