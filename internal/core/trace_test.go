package core

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/machine"
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
			f := New(np, WithBarrier(bk), WithTrace(rec))
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
// one per iteration under selfsched-lock.
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
			f := New(np, WithTrace(rec), WithChunk(4))
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
