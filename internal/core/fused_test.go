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
				p.DoAllChunkedOpen(kind, sched.Seq(n), func(lo, hi, stride int) {
					for i := lo; i < hi; i += stride {
						local += int64(i)
					}
				})
				g := int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local)))
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

// The fused join's real fold must be bit-identical to the slots
// strategy's pid-order fold.
func TestFusedJoinRealBitIdentical(t *testing.T) {
	const np = 8
	f := New(np)
	defer f.Close()
	var slots, fused uint64
	f.Run(func(p *Proc) {
		x := 0.1 * float64(p.ID()+1)
		g := Gsum(p, x)
		if p.ID() == 0 {
			atomic.StoreUint64(&slots, math.Float64bits(g))
		}
	})
	f.Run(func(p *Proc) {
		x := 0.1 * float64(p.ID()+1)
		g := p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(x))
		if p.ID() == 0 {
			atomic.StoreUint64(&fused, g)
		}
	})
	if slots != fused {
		t.Fatalf("real sum differs: slots %x, fused %x", slots, fused)
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
			p.DoAllChunkedOpen(sched.PreschedCyclic, sched.Seq(100), func(lo, hi, stride int) {})
			if p.ID() == 1 {
				panic("boom in fused region")
			}
			p.FusedJoin(reduce.Sum, reduce.NumInt, 1)
		})
	}()
	// The force must serve the next Run cleanly, including fused joins
	// (recoverAborted rebuilds the episode pair).
	var total atomic.Int64
	f.Run(func(p *Proc) {
		g := int64(p.FusedJoin(reduce.Sum, reduce.NumInt, 1))
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
		p.DoAllChunkedOpen(sched.PreschedCyclic, sched.Seq(64), chunk)
		sink = int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local)))
	}
	f.Run(body) // warm up: lazy state settles on the first Run
	avg := testing.AllocsPerRun(100, func() { f.Run(body) })
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %v objects/op, want 0", avg)
	}
	_ = sink
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
			p.PreschedBlockDo(sched.Range{Start: 64, Last: 1, Incr: -1}, each)
		}
		f.Run(body)
		if avg := testing.AllocsPerRun(100, func() { f.Run(body) }); avg != 0 {
			t.Errorf("np=%d: per-index prescheduled episodes allocate %v objects/Run, want 0", np, avg)
		}
		f.Close()
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
		p.DoAllChunkedOpen(sched.PreschedCyclic, sched.Seq(64), chunk)
		sink = int64(p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(local)))
	}
	f.Run(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Run(body)
	}
	_ = sink
}
