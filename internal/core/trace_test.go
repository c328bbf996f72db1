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
// the log for each discipline.
func TestTracedLoopCoverage(t *testing.T) {
	r := sched.Range{Start: 3, Last: 60, Incr: 3}
	var want []int64
	for k := 0; k < r.Count(); k++ {
		want = append(want, int64(r.Index(k)))
	}
	for _, kind := range []sched.Kind{sched.PreschedBlock, sched.PreschedCyclic, sched.SelfLock, sched.Chunk} {
		rec := trace.New(0)
		f := New(4, WithTrace(rec))
		f.Run(func(p *Proc) {
			p.DoAll(kind, r, func(i int) {})
		})
		if err := trace.CheckLoopCoverage(rec.Events(), want); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
		starts := trace.Filter(rec.Events(), trace.LoopStart)
		ends := trace.Filter(rec.Events(), trace.LoopEnd)
		if len(starts) != 4 || len(ends) != 4 {
			t.Errorf("%v: %d starts, %d ends, want 4 each", kind, len(starts), len(ends))
		}
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

// TestTraceThroughResolve: sub-forces inherit the recorder.
func TestTraceThroughResolve(t *testing.T) {
	rec := trace.New(0)
	f := New(4, WithTrace(rec))
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.Critical("inner", func() {})
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.Critical("inner", func() {})
			}},
		)
	})
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
