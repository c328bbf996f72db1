package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/barrier"
	"repro/internal/lock"
	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestGOpsAllStrategies: all six operators over the three element types
// they serve, under both strategies, at every force size from 1 to 8.
func TestGOpsAllStrategies(t *testing.T) {
	for _, k := range reduce.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for np := 1; np <= 8; np++ {
				f := New(np, WithReduce(k))
				var bad atomic.Int64
				check := func(ok bool) {
					if !ok {
						bad.Add(1)
					}
				}
				fact := 1
				for i := 2; i <= np; i++ {
					fact *= i
				}
				f.Run(func(p *Proc) {
					id := p.ID()
					// INTEGER
					check(Gsum(p, id+1) == np*(np+1)/2)
					check(Gprod(p, int64(id+1)) == int64(fact))
					check(Gmax(p, id-3) == np-4)
					check(Gmin(p, int64(100-id)) == int64(101-np))
					// REAL (exact in binary, so the fold order cannot show)
					check(Gsum(p, 0.5*float64(id+1)) == 0.25*float64(np*(np+1)))
					check(Gprod(p, 2.0) == float64(int(1)<<np))
					check(Gmax(p, float64(id)*1.5) == 1.5*float64(np-1))
					check(Gmin(p, -float64(id)) == -float64(np-1))
					// LOGICAL
					check(Gand(p, true) && Gand(p, id != np-1) == false)
					check(!Gor(p, false) && Gor(p, id == np-1))
				})
				f.Close()
				if bad.Load() != 0 {
					t.Errorf("np=%d: %d wrong reduction results", np, bad.Load())
				}
				if got := f.Stats().Reductions.Load(); got != int64(12*np) {
					t.Errorf("np=%d: Reductions stat = %d, want %d", np, got, 12*np)
				}
			}
		})
	}
}

// TestJoinStoresOnce: the once-only store of a reduction statement on its
// own — how a back end lands a reduction in a shared variable — runs in
// the completing process before any process is released, under both
// strategies.
func TestJoinStoresOnce(t *testing.T) {
	const np = 6
	for _, k := range reduce.Kinds() {
		f := New(np, WithReduce(k))
		var total uint64
		stores := 0
		var observed atomic.Int64
		f.Run(func(p *Proc) {
			got := p.FusedJoin(reduce.Sum, reduce.NumInt, 2, func(fold uint64) { total = fold; stores++ }, nil)
			// Every process observes the final value immediately.
			if total == got && got == 2*np {
				observed.Add(1)
			}
		})
		f.Close()
		if total != 2*np || stores != 1 {
			t.Errorf("%s: total = %d after %d stores, want %d after 1", k, total, stores, 2*np)
		}
		if observed.Load() != np {
			t.Errorf("%s: %d/%d processes observed the stored total", k, observed.Load(), np)
		}
	}
}

// countedLock counts the acquisitions of a lock built by a counting factory.
type countedLock struct {
	inner lock.Lock
	taken *atomic.Int64
}

func (l countedLock) Lock()   { l.taken.Add(1); l.inner.Lock() }
func (l countedLock) Unlock() { l.inner.Unlock() }

// TestCriticalUsesSuppliedLock: -reduce critical reaches every reduction —
// fused tails, reductions on their own, the Go API — as the paper's idiom
// over the force's own primitives.  The accumulator lock is the one lock
// the force builds from the machine's factory for it, taken once per
// process per episode, and the close is the force's barrier: under the
// sense barrier nothing else is ever built or locked, under the two-lock
// barrier nothing beyond its BARWIN/BARWOT pair — no private barrier, no
// lock per episode.
func TestCriticalUsesSuppliedLock(t *testing.T) {
	const np, episodes = 4, 25
	for _, bk := range barrier.Kinds() {
		f := New(np, WithBarrier(bk), WithReduce(reduce.Critical))
		built := 0
		var taken atomic.Int64
		inner := f.newLock
		f.newLock = func() lock.Lock { built++; return countedLock{inner(), &taken} }
		f.initConstructs() // as after an aborted Run: everything from the factory again
		wantBuilt := map[barrier.Kind]int{barrier.CentralSense: 1, barrier.TwoLock: 3}[bk]
		if built != wantBuilt {
			t.Errorf("%v: the force built %d locks, want %d (the accumulator's, and the barrier's own)", bk, built, wantBuilt)
		}
		taken.Store(0)
		var bad atomic.Int64
		f.Run(func(p *Proc) {
			for e := 0; e < episodes; e++ {
				local := 0
				p.DoAllChunkedOpen(sched.PreschedBlock, 1, sched.Seq(40), func(lo, hi, stride int) {
					for i := lo; i < hi; i += stride {
						local += i
					}
				})
				if p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local), nil, nil) != 780 {
					bad.Add(1)
				}
			}
		})
		f.Close()
		if bad.Load() != 0 {
			t.Errorf("%v: %d wrong fused sums under the critical strategy", bk, bad.Load())
		}
		if built != wantBuilt {
			t.Errorf("%v: %d locks built after %d episodes, want still %d", bk, built, episodes, wantBuilt)
		}
		if bk == barrier.CentralSense && taken.Load() != np*episodes {
			t.Errorf("%v: the accumulator lock was taken %d times in %d episodes of %d processes, want once each", bk, taken.Load(), episodes, np)
		}
	}
}

// TestCollectiveStatsPerEpisode pins what one use of the closing collective
// counts, whatever it carries and under either strategy: one reduction per
// process, no barrier (not even for the Barrier statement riding it, or
// for the critical strategy's closing barrier) and no critical section.
func TestCollectiveStatsPerEpisode(t *testing.T) {
	const np = 3
	uses := map[string]func(p *Proc){
		"fused tail": func(p *Proc) {
			p.DoAllChunkedOpen(sched.PreschedCyclic, 1, sched.Seq(8), func(lo, hi, stride int) {})
			p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, nil)
		},
		"reduction on its own":  func(p *Proc) { p.FusedJoin(reduce.Max, reduce.NumReal, 0, nil, nil) },
		"ridden reduction":      func(p *Proc) { p.FusedJoin(reduce.Or, reduce.NumInt, 1, func(uint64) {}, func() {}) },
		"reduction-less close":  func(p *Proc) { p.FusedClose(func() {}) },
		"Go API":                func(p *Proc) { Gsum(p, 1) },
		"Go API custom combine": func(p *Proc) { Reduce(p, "x", func(a, b string) string { return a + b }) },
	}
	for _, k := range reduce.Kinds() {
		for name, use := range uses {
			f := New(np, WithReduce(k))
			f.Run(use)
			f.Close()
			st := f.Stats()
			if r, b, c := st.Reductions.Load(), st.Barriers.Load(), st.Criticals.Load(); r != np || b != 0 || c != 0 {
				t.Errorf("%s, %s: %d reductions, %d barriers, %d criticals; want %d, 0, 0", k, name, r, b, c, np)
			}
		}
	}
}

func TestReduceSectionRunsOnceSuspended(t *testing.T) {
	const np = 8
	for _, k := range reduce.Kinds() {
		f := New(np, WithReduce(k))
		sectionRuns := 0 // unsynchronized on purpose: exactly one process writes it
		var wrong atomic.Int64
		f.Run(func(p *Proc) {
			type pair struct{ v, id int }
			win := ReduceSection(p, pair{v: (p.ID()*5)%np + 1, id: p.ID()}, func(a, b pair) pair {
				if b.v > a.v || (b.v == a.v && b.id < a.id) {
					return b
				}
				return a
			}, func(w pair) { sectionRuns++ })
			if win.v != np {
				wrong.Add(1)
			}
		})
		f.Close()
		if sectionRuns != 1 {
			t.Errorf("%s: section ran %d times, want 1", k, sectionRuns)
		}
		if wrong.Load() != 0 {
			t.Errorf("%s: %d processes saw a wrong argmax", k, wrong.Load())
		}
	}
}

func TestReduceInsideLoopBody(t *testing.T) {
	// A convergence-loop shape: repeated reductions in SPMD order, with
	// other constructs interleaved, on a non-native machine profile.
	const np = 4
	f := New(np, WithMachine(machine.Sequent), WithReduce(reduce.Critical))
	defer f.Close()
	var bad atomic.Int64
	f.Run(func(p *Proc) {
		for sweep := 0; sweep < 50; sweep++ {
			local := 0
			p.PreschedDo(sched.Seq(20), func(i int) { local += i })
			// The per-process shares sum to the whole iteration space.
			if Gsum(p, local) != 190 {
				bad.Add(1)
			}
			if Gsum(p, 1) != np {
				bad.Add(1)
			}
			p.Barrier()
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d wrong in-loop reductions", bad.Load())
	}
}

func TestReduceTraceEvents(t *testing.T) {
	const np = 4
	rec := trace.New(0)
	f := New(np, WithTrace(rec), WithReduce(reduce.PrivateSlots))
	defer f.Close()
	f.Run(func(p *Proc) {
		Gsum(p, 1)
		Gmax(p, float64(p.ID()))
		Gor(p, false)
	})
	events := rec.Events()
	if err := trace.CheckReduceParticipation(events, np); err != nil {
		t.Error(err)
	}
	if got := len(trace.Filter(events, trace.ReduceEnter)); got != 3*np {
		t.Errorf("%d reduce-enter events, want %d", got, 3*np)
	}
}

func TestReduceInsideResolveSubforce(t *testing.T) {
	// Sub-forces inherit the reduction strategy, and a reduction inside a
	// component is private to the component's processes.
	const np = 6
	f := New(np, WithReduce(reduce.Critical))
	defer f.Close()
	var a, b atomic.Int64
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 1, Body: func(sp *Proc) {
				if Gsum(sp, 1) == sp.NP() {
					a.Add(1)
				}
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				if Gsum(sp, 10) == 10*sp.NP() {
					b.Add(1)
				}
			}},
		)
	})
	if a.Load()+b.Load() != np {
		t.Errorf("component reductions: %d+%d correct results, want %d total", a.Load(), b.Load(), np)
	}
}
