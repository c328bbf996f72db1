package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/reduce"
	"repro/internal/sched"
)

// A fused open+join must compute the same sum a DoAllChunked + Gsum
// pair does, under both a prescheduled and a selfscheduled discipline,
// and the force must stay reusable across many Runs (episode reuse).
func TestFusedJoinMatchesUnfused(t *testing.T) {
	const np, n = 4, 1000
	for _, kind := range []sched.Kind{sched.PreschedCyclic, sched.PreschedBlock, sched.SelfAtomic} {
		f := New(np)
		for run := 0; run < 3; run++ {
			var want atomic.Int64
			want.Store(0)
			f.Run(func(p *Proc) {
				var local int64
				p.DoAllChunked(kind, sched.Seq(n), func(lo, hi, stride int) {
					for i := lo; i < hi; i += stride {
						local += int64(i)
					}
				})
				g := Gsum(p, local)
				want.Store(g)
			})
			var got atomic.Int64
			f.Run(func(p *Proc) {
				var local int64
				p.DoAllChunkedOpen(kind, 1, sched.Seq(n), func(lo, hi, stride int) {
					for i := lo; i < hi; i += stride {
						local += int64(i)
					}
				})
				g := int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local), nil, nil))
				got.Store(g)
			})
			if got.Load() != want.Load() || got.Load() != n*(n-1)/2 {
				t.Fatalf("kind %v run %d: fused %d, unfused %d, want %d",
					kind, run, got.Load(), want.Load(), n*(n-1)/2)
			}
		}
		f.Close()
	}
}

// The real fold of the slots strategy — a fused tail's and the Go API's
// alike — is bit-identical to the sequential left fold of the
// contributions in pid order.
func TestFusedJoinRealBitIdentical(t *testing.T) {
	const np = 8
	f := New(np)
	defer f.Close()
	want := 0.1
	for pid := 1; pid < np; pid++ {
		want += 0.1 * float64(pid+1)
	}
	var api, fused uint64
	f.Run(func(p *Proc) {
		x := 0.1 * float64(p.ID()+1)
		g := Gsum(p, x)
		p.DoAllChunkedOpen(sched.PreschedBlock, 1, sched.Seq(np), func(lo, hi, stride int) {})
		h := p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(x), nil, nil)
		if p.ID() == 0 {
			atomic.StoreUint64(&api, math.Float64bits(g))
			atomic.StoreUint64(&fused, h)
		}
	})
	if api != math.Float64bits(want) || fused != math.Float64bits(want) {
		t.Fatalf("real sum: Go API %x, fused tail %x, sequential fold %x", api, fused, math.Float64bits(want))
	}
}

// An abort inside a fused region must poison the force, wake the
// peers parked in the join, and leave the force reusable.
func TestFusedJoinAbortRecovers(t *testing.T) {
	const np = 4
	f := New(np)
	defer f.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("run with a faulting process did not panic")
			}
		}()
		f.Run(func(p *Proc) {
			p.DoAllChunkedOpen(sched.PreschedCyclic, 1, sched.Seq(100), func(lo, hi, stride int) {})
			if p.ID() == 1 {
				panic("boom in fused region")
			}
			p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, nil)
		})
	}()
	// The force must serve the next Run cleanly, including fused joins
	// (recoverAborted rebuilds the episode pair).
	var total atomic.Int64
	f.Run(func(p *Proc) {
		g := int64(p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, nil))
		total.Store(g)
	})
	if total.Load() != np {
		t.Fatalf("post-abort fused join = %d, want %d", total.Load(), np)
	}
}

// The steady-state acceptance gate: a warm Force.Run of a small
// chunked kernel with a fused join must not allocate at all.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	f := New(1)
	defer f.Close()
	// Hoist every closure: a per-Run closure would be the caller's own
	// allocation, not the runtime's.
	var sink, local int64
	chunk := func(lo, hi, stride int) {
		for i := lo; i < hi; i += stride {
			local += int64(i)
		}
	}
	body := func(p *Proc) {
		local = 0
		p.DoAllChunkedOpen(sched.PreschedCyclic, 1, sched.Seq(64), chunk)
		sink = int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local), nil, nil))
	}
	f.Run(body) // warm up: lazy state settles on the first Run
	avg := testing.AllocsPerRun(100, func() { f.Run(body) })
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %v objects/op, want 0", avg)
	}
	_ = sink
}

// A reduction statement on its own is the same collective with nothing
// open in front of it: bit-encoded, with or without a Barrier riding it, and
// through the Go API's six operators, a warm force allocates nothing for
// it; a custom combine boxes its contributions, at most 3 allocations per
// process and use.
func TestStandaloneReductionZeroAllocs(t *testing.T) {
	for _, np := range []int{1, 2} {
		f := New(np)
		var stored, sections atomic.Int64
		store := func(fold uint64) { stored.Store(int64(fold)) }
		section := func() { sections.Add(1) }
		bits := func(p *Proc) {
			p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(p.ID()+1), nil, nil)
			p.FusedJoin(reduce.Max, reduce.NumReal, math.Float64bits(float64(p.ID())), store, section)
			Gsum(p, p.ID())
			Gmax(p, 0.5)
			Gand(p, true)
		}
		f.Run(bits)
		if avg := testing.AllocsPerRun(100, func() { f.Run(bits) }); avg != 0 {
			t.Errorf("np=%d: standalone bit-encoded reductions allocate %v objects/Run, want 0", np, avg)
		}
		if sections.Load() != 102 || stored.Load() != int64(math.Float64bits(float64(np-1))) {
			t.Errorf("np=%d: %d sections in 102 Runs, stored %x", np, sections.Load(), stored.Load())
		}
		type pair struct{ v, id int }
		pick := func(a, b pair) pair {
			if b.v > a.v {
				return b
			}
			return a
		}
		custom := func(p *Proc) { Reduce(p, pair{p.ID(), p.ID()}, pick) }
		f.Run(custom)
		if avg := testing.AllocsPerRun(100, func() { f.Run(custom) }); avg > float64(3*np) {
			t.Errorf("np=%d: a custom reduction allocates %v objects/Run, want at most %d", np, avg, 3*np)
		}
		f.Close()
	}
}

// The per-index entry points ride the same span path: a warm force
// running prescheduled per-index episodes allocates nothing either — no
// scheduler object, no construct entry, no per-Run closure.
func TestPerIndexSteadyStateZeroAllocs(t *testing.T) {
	for _, np := range []int{1, 2} {
		f := New(np)
		var sink atomic.Int64
		each := func(i int) { sink.Add(int64(i)) }
		body := func(p *Proc) {
			p.PreschedDo(sched.Seq(64), each)
			p.DoAll(sched.PreschedBlock, sched.Range{Start: 64, Last: 1, Incr: -1}, each)
		}
		f.Run(body)
		if avg := testing.AllocsPerRun(100, func() { f.Run(body) }); avg != 0 {
			t.Errorf("np=%d: per-index prescheduled episodes allocate %v objects/Run, want 0", np, avg)
		}
		f.Close()
	}
}

// Selfscheduled loops draw from the force's reusable loop slots: on a warm
// persistent force a selfscheduled DoAllChunked episode (the Go API's
// grant 1), a granted one, a SelfschedPcase and a fused region with a
// selfscheduled member whose join stores its fold and carries a section
// allocate nothing, Run after Run (Proc.seq restarts with every Run, and
// the slots with it) — and again after an aborted Run left a slot half
// drained.
func TestSelfschedSteadyStateZeroAllocs(t *testing.T) {
	const n = 1000
	for _, np := range []int{1, 2} {
		f := New(np)
		var loop, fused, stored, sections atomic.Int64
		each := func(lo, hi, stride int) {
			for i := lo; i < hi; i += stride {
				loop.Add(int64(i))
			}
		}
		blocks := []Block{Case(func() { loop.Add(1) }), Case(func() { loop.Add(2) }), Case(func() { loop.Add(3) })}
		store := func(fold uint64) { stored.Store(int64(fold)) }
		section := func() { sections.Add(1) }
		body := func(p *Proc) {
			p.DoAllChunked(sched.SelfLock, sched.Seq(n), each)
			p.DoAllGranted(sched.SelfAtomic, 64, sched.Seq(n), each)
			p.DoAllGranted(sched.Chunk, 64, sched.Seq(n), each)
			p.SelfschedPcase(blocks...)
			p.DoAllChunkedOpen(sched.SelfLock, 16, sched.Seq(n), each)
			p.DoAllChunkedOpen(sched.SelfLock, 16, sched.Seq(n), each)
			fused.Store(int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(p.ID()+1), store, section)))
		}
		check := func(when string, runs int64) {
			t.Helper()
			const sum = n * (n - 1) / 2
			if got, want := loop.Load(), runs*(5*sum+6); got != want {
				t.Fatalf("np=%d %s: loops summed %d, want %d", np, when, got, want)
			}
			if join := int64(np * (np + 1) / 2); fused.Load() != join || stored.Load() != join || sections.Load() != runs {
				t.Fatalf("np=%d %s: fused %d stored %d (want %d), %d sections in %d Runs",
					np, when, fused.Load(), stored.Load(), join, sections.Load(), runs)
			}
		}
		f.Run(body) // warm up: loop locks and lazy state settle on the first Run
		check("first Run", 1)
		if avg := testing.AllocsPerRun(50, func() { f.Run(body) }); avg != 0 {
			t.Errorf("np=%d: selfscheduled episodes allocate %v objects/Run, want 0", np, avg)
		}
		check("steady state", 52)

		// An aborted Run leaves a slot armed and half drained.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("run with a faulting process did not panic")
				}
			}()
			f.Run(func(p *Proc) {
				p.DoAllChunked(sched.SelfLock, sched.Seq(n), func(lo, hi, stride int) {
					if lo == n/2 {
						panic("boom inside a selfscheduled span")
					}
				})
			})
		}()
		loop.Store(0)
		sections.Store(0)
		f.Run(body)
		check("after an aborted Run", 1)
		if avg := testing.AllocsPerRun(50, func() { f.Run(body) }); avg != 0 {
			t.Errorf("np=%d: after an aborted Run selfscheduled episodes allocate %v objects/Run, want 0", np, avg)
		}
		f.Close()
	}
}

// More open selfscheduled members than the force has loop slots: a
// process that runs ahead waits for the slot of an earlier member to be
// drained by everyone, and every member still executes each ordinal
// exactly once.
func TestOpenMembersBeyondLoopSlots(t *testing.T) {
	const np, n, members = 4, 257, 3*loopSlots + 1
	f := New(np)
	defer f.Close()
	counts := make([]atomic.Int64, members*n)
	for run := 0; run < 3; run++ {
		f.Run(func(p *Proc) {
			for m := 0; m < members; m++ {
				m := m
				p.DoAllChunkedOpen(sched.SelfLock, 5, sched.Seq(n), func(lo, hi, stride int) {
					for i := lo; i < hi; i += stride {
						counts[m*n+i].Add(1)
					}
				})
			}
			p.FusedJoin(reduce.Sum, reduce.NumInt, 0, nil, nil)
		})
		for i := range counts {
			if got := counts[i].Load(); got != int64(run+1) {
				t.Fatalf("run %d: member %d ordinal %d executed %d times", run, i/n, i%n, got)
			}
		}
	}
}

// Sub-forces own their loop slots: the components of a Resolve run
// selfscheduled loops concurrently, each over its own processes, while
// the parent's slots serve the loops around the Resolve.
func TestResolveComponentsOwnLoopSlots(t *testing.T) {
	const np, n = 4, 500
	f := New(np)
	defer f.Close()
	var outer, a, b atomic.Int64
	sum := func(into *atomic.Int64) ChunkBody {
		return func(lo, hi, stride int) {
			for i := lo; i < hi; i += stride {
				into.Add(int64(i))
			}
		}
	}
	for run := 0; run < 3; run++ {
		f.Run(func(p *Proc) {
			p.DoAllGranted(sched.SelfLock, 8, sched.Seq(n), sum(&outer))
			p.Resolve(
				Component{Weight: 1, Body: func(sp *Proc) {
					for k := 0; k < 3; k++ {
						sp.DoAllGranted(sched.SelfLock, 8, sched.Seq(n), sum(&a))
					}
				}},
				Component{Weight: 1, Body: func(sp *Proc) {
					for k := 0; k < 5; k++ {
						sp.DoAllChunked(sched.SelfAtomic, sched.Seq(n), sum(&b))
					}
				}},
			)
			p.DoAllGranted(sched.SelfLock, 8, sched.Seq(n), sum(&outer))
		})
	}
	const s = n * (n - 1) / 2
	if outer.Load() != 3*2*s || a.Load() != 3*3*s || b.Load() != 3*5*s {
		t.Fatalf("outer %d (want %d), component a %d (want %d), component b %d (want %d)",
			outer.Load(), 3*2*s, a.Load(), 3*3*s, b.Load(), 3*5*s)
	}
}

// BenchmarkRunSteadyState is the committed allocs/op evidence for the
// zero-allocation steady state: a warm persistent force running a
// small fused kernel per op.  Run with -benchmem.
func BenchmarkRunSteadyState(b *testing.B) {
	f := New(1)
	defer f.Close()
	var sink, local int64
	chunk := func(lo, hi, stride int) {
		for i := lo; i < hi; i += stride {
			local += int64(i)
		}
	}
	body := func(p *Proc) {
		local = 0
		p.DoAllChunkedOpen(sched.PreschedCyclic, 1, sched.Seq(64), chunk)
		sink = int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local), nil, nil))
	}
	f.Run(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Run(body)
	}
	_ = sink
}

// A selfscheduled loop its planner granted whole — trip count within one
// grant above 1 — has a fixed owner: process 0 runs every ordinal in one
// span, under every discipline, open or closed, and no loop slot is
// armed for it.  One ordinal more, or the paper's grant of one, and the
// loop is claimed through its slot as before.
func TestLoopWithinOneGrantHasAFixedOwner(t *testing.T) {
	const np, grant = 4, 40
	for _, kind := range []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
		f := New(np)
		var spans, foreign, total atomic.Int64
		body := func(pid int) ChunkBody {
			return func(lo, hi, stride int) {
				spans.Add(1)
				if pid != 0 {
					foreign.Add(1)
				}
				for i := lo; i < hi; i += stride {
					total.Add(int64(i) + 1)
				}
			}
		}
		for run := 0; run < 3; run++ {
			spans.Store(0)
			total.Store(0)
			f.Run(func(p *Proc) {
				p.DoAllGranted(kind, grant, sched.Seq(grant), body(p.ID()))
				p.DoAllGranted(kind, grant, sched.Seq(0), body(p.ID()))
				p.DoAllChunkedOpen(kind, grant, sched.Seq(grant-7), body(p.ID()))
				p.FusedClose(nil)
			})
			if spans.Load() != 2 || foreign.Load() != 0 || total.Load() != grant*(grant+1)/2+(grant-7)*(grant-6)/2 {
				t.Fatalf("%v run %d: %d spans (%d outside process 0) summing %d; want 2 whole loops in process 0",
					kind, run, spans.Load(), foreign.Load(), total.Load())
			}
			for i := range f.loops {
				if tag := f.loops[i].tag.Load(); tag != 0 {
					t.Fatalf("%v run %d: loop slot %d was armed (tag %d) for a loop within one grant", kind, run, i, tag)
				}
			}
		}
		// Beyond one grant, and at grant 1, the slot deals the loop.
		spans.Store(0)
		total.Store(0)
		f.Run(func(p *Proc) {
			p.DoAllGranted(kind, grant, sched.Seq(grant+1), body(0))
			p.DoAllGranted(kind, 1, sched.Seq(1), body(0))
		})
		if spans.Load() != 3 || total.Load() != (grant+1)*(grant+2)/2+1 {
			t.Errorf("%v: %d spans summing %d for a loop of grant+1 ordinals and a one-trip loop at grant 1", kind, spans.Load(), total.Load())
		}
		armed := 0
		for i := range f.loops {
			if f.loops[i].tag.Load() != 0 {
				armed++
			}
		}
		if armed != 2 {
			t.Errorf("%v: %d loop slots armed for two claimed loops, want 2", kind, armed)
		}
		f.Close()
	}
}
