package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/barrier"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestTracedBarrierContract runs a barrier/section-heavy program under the
// recorder and validates the full Force barrier contract from the log,
// for the paper's barrier and for every other algorithm.
func TestTracedBarrierContract(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		bk := bk
		t.Run(bk.String(), func(t *testing.T) {
			t.Parallel()
			rec := trace.New(0)
			const np = 5
			f := New(np, WithVariants(Variants{Barrier: bk}), WithTrace(rec))
			if f.Trace() != rec {
				t.Fatal("Trace() accessor broken")
			}
			shared := 0
			f.Run(func(p *Proc) {
				for e := 0; e < 15; e++ {
					p.Barrier()
					p.BarrierSection(func() { shared++ })
				}
			})
			if err := trace.CheckBarrierEpisodes(rec.Events(), np); err != nil {
				t.Error(err)
			}
			if shared != 15 {
				t.Errorf("sections ran %d times, want 15", shared)
			}
		})
	}
}

// TestTracedCriticalExclusion validates mutual exclusion from the log for
// every machine profile's lock kind.
func TestTracedCriticalExclusion(t *testing.T) {
	for _, m := range machine.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.New(0)
			f := New(6, WithMachine(m), WithTrace(rec))
			f.Run(func(p *Proc) {
				for i := 0; i < 100; i++ {
					p.Critical("a", func() {})
					if i%3 == 0 {
						p.Critical("b", func() {})
					}
				}
			})
			if err := trace.CheckCriticalExclusion(rec.Events(), ""); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTracedLoopCoverage validates exactly-once iteration execution from
// the log's LoopSpan events for each discipline, through the per-index and
// the span entry points alike (one path, one granularity), and that the
// log has one event per grant: one per process under a prescheduled deal,
// one per iteration under selfsched-lock through the Go API (grant 1), and
// one per claim of the planner's grant through DoAllGranted.
func TestTracedLoopCoverage(t *testing.T) {
	r := sched.Range{Start: 60, Last: 3, Incr: -3}
	var want []int64
	for k := 0; k < r.Count(); k++ {
		want = append(want, int64(r.Index(k)))
	}
	const np = 4
	spans := map[sched.Kind]int{sched.PreschedBlock: np, sched.PreschedCyclic: np, sched.SelfLock: r.Count()}
	for _, kind := range sched.Kinds() {
		for _, perIndex := range []bool{true, false} {
			rec := trace.New(0)
			f := New(np, WithTrace(rec))
			f.Run(func(p *Proc) {
				if perIndex {
					p.DoAll(kind, r, func(i int) {})
				} else {
					p.DoAllChunked(kind, r, func(lo, hi, stride int) {})
				}
			})
			f.Close()
			if err := trace.CheckLoopCoverage(rec.Events(), want); err != nil {
				t.Errorf("%v per-index=%v: %v", kind, perIndex, err)
			}
			if n, ok := spans[kind]; ok && len(trace.Filter(rec.Events(), trace.LoopSpan)) != n {
				t.Errorf("%v per-index=%v: %d span events, want %d", kind, perIndex,
					len(trace.Filter(rec.Events(), trace.LoopSpan)), n)
			}
			starts := trace.Filter(rec.Events(), trace.LoopStart)
			ends := trace.Filter(rec.Events(), trace.LoopEnd)
			if len(starts) != np || len(ends) != np {
				t.Errorf("%v: %d starts, %d ends, want %d each", kind, len(starts), len(ends), np)
			}
		}
	}
	// The planned path: 20 iterations at a grant of 7 are three claims
	// (7, 7, 6) under the lock and the fetch-and-add; Chunk takes the
	// larger of the grant and sched.DefaultChunk (16, 4).
	for _, kind := range []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
		rec := trace.New(0)
		f := New(np, WithTrace(rec))
		f.Run(func(p *Proc) { p.DoAllGranted(kind, 7, r, func(lo, hi, stride int) {}) })
		f.Close()
		if err := trace.CheckLoopCoverage(rec.Events(), want); err != nil {
			t.Errorf("%v granted: %v", kind, err)
		}
		want := 3
		if kind == sched.Chunk {
			want = 2
		}
		if n := len(trace.Filter(rec.Events(), trace.LoopSpan)); n != want {
			t.Errorf("%v granted: %d span events, want %d", kind, n, want)
		}
	}
}

// TestRiddenBarrier pins what a Barrier statement riding a closing
// collective is to the runtime: its section runs exactly once, after the
// completing process stored the fold, with every other process suspended;
// no barrier episode is counted for it (Stats.Barriers) while every
// process's loop entry still is; and a recorder sees the barrier as if it
// had run — BarrierEnter / BarrierLeave per process, SectionStart /
// SectionEnd around the section — so the barrier contract validates from
// the log, for both barrier algorithms and both reduce strategies.
func TestRiddenBarrier(t *testing.T) {
	const np, rounds = 4, 10
	for _, bk := range barrier.Kinds() {
		for _, rk := range reduce.Kinds() {
			rec := trace.New(0)
			f := New(np, WithVariants(Variants{Barrier: bk, Reduce: rk}), WithTrace(rec))
			var inside atomic.Int64 // processes between entering and leaving a closer
			var exitSecs, joinSecs, numSecs, logSecs, stored, early int64
			alone := func() {
				if inside.Load() != np {
					early++
				}
			}
			f.Run(func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.DoAllChunkedOpen(sched.SelfLock, 3, sched.Seq(10), func(lo, hi, stride int) {})
					inside.Add(1)
					p.JoinSection(func() { alone(); exitSecs++ })
					inside.Add(-1)

					p.DoAllChunkedOpen(sched.PreschedBlock, 1, sched.Seq(10), func(lo, hi, stride int) {})
					inside.Add(1)
					fold := p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(p.ID()+1),
						func(fold uint64) { stored = int64(fold) },
						func() {
							alone()
							if stored != np*(np+1)/2 {
								early++ // the section ran before the store
							}
							stored = 0
							joinSecs++
						})
					inside.Add(-1)
					if fold != np*(np+1)/2 {
						t.Errorf("fused join folded %d", fold)
					}

					// A reduction statement on its own is a region with no members.
					inside.Add(1)
					got := p.FusedJoin(reduce.Max, reduce.NumReal, math.Float64bits(float64(p.ID())),
						func(m uint64) { stored = int64(math.Float64frombits(m)) },
						func() { alone(); numSecs += stored })
					if math.Float64frombits(got) != np-1 {
						t.Errorf("standalone REAL max = %v", math.Float64frombits(got))
					}
					inside.Add(-1)
					inside.Add(1)
					var any uint64
					if p.ID() == 2 {
						any = 1
					}
					if got := p.FusedJoin(reduce.Or, reduce.NumInt, any, nil, func() { alone(); logSecs++ }); got != 1 {
						t.Errorf("standalone logical or = %v", got)
					}
					inside.Add(-1)
				}
			})
			f.Close()
			if exitSecs != rounds || joinSecs != rounds || numSecs != rounds*(np-1) || logSecs != rounds || early != 0 {
				t.Errorf("%v/%v: sections ran %d, %d, %d, %d times (want %d, %d, %d, %d); %d not alone or before the store",
					bk, rk, exitSecs, joinSecs, numSecs, logSecs, rounds, rounds, rounds*(np-1), rounds, early)
			}
			st := f.Stats()
			if st.Barriers.Load() != 0 || st.Loops.Load() != 2*rounds*np || st.Reductions.Load() != 3*rounds*np {
				t.Errorf("%v/%v: stats count %d barriers, %d loops, %d reductions; want 0, %d, %d",
					bk, rk, st.Barriers.Load(), st.Loops.Load(), st.Reductions.Load(), 2*rounds*np, 3*rounds*np)
			}
			ev := rec.Events()
			if err := trace.CheckBarrierEpisodes(ev, np); err != nil {
				t.Errorf("%v/%v: %v", bk, rk, err)
			}
			if e, s := len(trace.Filter(ev, trace.BarrierEnter)), len(trace.Filter(ev, trace.SectionStart)); e != 4*rounds*np || s != 4*rounds {
				t.Errorf("%v/%v: %d barrier enters, %d sections in the log; want %d, %d", bk, rk, e, s, 4*rounds*np, 4*rounds)
			}
		}
	}
}

// TestRiddenBarrierFaultSites: the fault-injection harness reaches a
// ridden barrier through the sites of the Barrier statement — a panic
// armed at barrier.section fires inside the section position of a fused
// join and aborts the Run like a failing section of the barrier's own
// episode, and the force stays reusable.
func TestRiddenBarrierFaultSites(t *testing.T) {
	const np = 3
	f := New(np)
	defer f.Close()
	for _, site := range []string{faultinject.BarrierEnter, faultinject.BarrierSection, faultinject.BarrierExit} {
		plan := faultinject.NewPlan(1).Add(faultinject.Injection{Site: site, Kind: faultinject.Panic, Pid: -1})
		faultinject.Enable(plan)
		var got any
		func() {
			defer func() { got = recover() }()
			f.Run(func(p *Proc) {
				p.DoAllChunkedOpen(sched.PreschedCyclic, 1, sched.Seq(8), func(lo, hi, stride int) {})
				p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, func() {})
			})
		}()
		faultinject.Disable()
		var inj *faultinject.Error
		if err, ok := got.(error); !ok || !errors.As(err, &inj) || inj.Site != site {
			t.Errorf("%s: Run ended with %v, want the injected fault", site, got)
		}
		if !plan.Fired(site) {
			t.Errorf("%s never fired on a ridden barrier", site)
		}
		sections := 0
		f.Run(func(p *Proc) { p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, func() { sections++ }) })
		if sections != 1 {
			t.Errorf("%s: after the abort the ridden section ran %d times, want 1", site, sections)
		}
	}
}

// TestTracedLoop2FlatOrdinals: a two-index loop's spans carry flat
// ordinals of the pair space.
func TestTracedLoop2FlatOrdinals(t *testing.T) {
	rec := trace.New(0)
	f := New(3, WithTrace(rec))
	defer f.Close()
	f.Run(func(p *Proc) {
		p.PreschedDo2(sched.Range{Start: 5, Last: 1, Incr: -2}, sched.Seq(4), func(i, j int) {})
	})
	want := make([]int64, 3*4)
	for k := range want {
		want[k] = int64(k)
	}
	if err := trace.CheckLoopCoverage(rec.Events(), want); err != nil {
		t.Error(err)
	}
}

// TestTracedPcaseAndAskfor counts block and task events.
func TestTracedPcaseAndAskfor(t *testing.T) {
	rec := trace.New(0)
	f := New(3, WithTrace(rec))
	f.Run(func(p *Proc) {
		p.Pcase(
			Case(func() {}),
			Case(func() {}),
			CaseIf(func() bool { return false }, func() {}),
		)
		p.Askfor([]any{1}, func(task any, put func(any)) {
			if d := task.(int); d < 4 {
				put(d + 1)
			}
		})
	})
	if got := len(trace.Filter(rec.Events(), trace.PcaseBlock)); got != 2 {
		t.Errorf("pcase blocks traced = %d, want 2", got)
	}
	if got := len(trace.Filter(rec.Events(), trace.AskforTask)); got != 4 {
		t.Errorf("askfor tasks traced = %d, want 4 (chain 1..4)", got)
	}
}

// TestTraceThroughResolve: sub-forces inherit the recorder, for critical
// sections and for the spans of a component's own DOALL.
func TestTraceThroughResolve(t *testing.T) {
	rec := trace.New(0)
	f := New(4, WithTrace(rec))
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.Critical("inner", func() {})
				sp.PreschedDo(sched.Seq(7), func(i int) {})
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.Critical("inner", func() {})
			}},
		)
	})
	if err := trace.CheckLoopCoverage(rec.Events(), []int64{0, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Error(err)
	}
	if err := trace.CheckCriticalExclusion(rec.Events(), "inner"); err != nil {
		t.Error(err)
	}
	if got := len(trace.Filter(rec.Events(), trace.CriticalEnter)); got != 4 {
		t.Errorf("critical enters = %d, want 4 (one per process)", got)
	}
}

// TestNoTraceNoEvents: without WithTrace nothing records and nothing
// panics.
func TestNoTraceNoEvents(t *testing.T) {
	f := New(2)
	if f.Trace() != nil {
		t.Fatal("default force has a recorder")
	}
	f.Run(func(p *Proc) {
		p.Barrier()
		p.Critical("x", func() {})
		p.SelfschedDo(sched.Seq(5), func(i int) {})
	})
}
