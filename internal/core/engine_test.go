package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
)

// TestForceReuseKeepsSequenceAndStats is the persistent-engine reuse
// property: sequential re-Runs on one Force keep the SPMD
// construct-sequence table straight (every construct instance gets fresh
// shared state each run) and the stats counters accumulate exactly.
func TestForceReuseKeepsSequenceAndStats(t *testing.T) {
	const np, runs = 4, 5
	f := New(np, WithChunk(4))
	defer f.Close()
	var loopIters, pcaseRuns, askforRuns atomic.Int64
	for r := 0; r < runs; r++ {
		f.Run(func(p *Proc) {
			p.SelfschedDo(sched.Seq(30), func(i int) { loopIters.Add(1) })
			p.ChunkDo(sched.Seq(40), func(i int) { loopIters.Add(1) })
			p.SelfschedPcase(
				Case(func() { pcaseRuns.Add(1) }),
				Case(func() { pcaseRuns.Add(1) }),
				Case(func() { pcaseRuns.Add(1) }),
			)
			p.Askfor([]any{1, 2, 3}, func(task any, put func(any)) {
				askforRuns.Add(1)
			})
			p.Barrier()
		})
		// Per-run exactness, not just totals: a stale construct entry
		// from the previous run would double-execute or drop work.
		if got := loopIters.Load(); got != int64((r+1)*70) {
			t.Fatalf("run %d: loop iterations = %d, want %d", r, got, (r+1)*70)
		}
		if got := pcaseRuns.Load(); got != int64((r+1)*3) {
			t.Fatalf("run %d: pcase blocks = %d, want %d", r, got, (r+1)*3)
		}
		if got := askforRuns.Load(); got != int64((r+1)*3) {
			t.Fatalf("run %d: askfor tasks = %d, want %d", r, got, (r+1)*3)
		}
	}
	st := f.Stats()
	if got := st.Loops.Load(); got != int64(runs*2*np) {
		t.Errorf("loop stat = %d, want %d", got, runs*2*np)
	}
	if got := st.PcaseBlocks.Load(); got != int64(runs*3) {
		t.Errorf("pcase stat = %d, want %d", got, runs*3)
	}
	if got := st.AskforTasks.Load(); got != int64(runs*3) {
		t.Errorf("askfor stat = %d, want %d", got, runs*3)
	}
	if got := st.Barriers.Load(); got != int64(runs*np) {
		t.Errorf("barrier stat = %d, want %d", got, runs*np)
	}
}

// TestAskforPutHeavyTreeBothPools drains an unbalanced, put-heavy tree —
// each spine node spawns a deep child plus a fan of leaves, the shape the
// central monitor serializes worst — and requires exact task conservation
// and termination for both pool disciplines.  Run under -race in CI.
func TestAskforPutHeavyTreeBothPools(t *testing.T) {
	const depth, width = 120, 6
	want := int64(depth*(width+1) + 1)
	for _, kind := range engine.PoolKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, np := range []int{1, 3, 8} {
				f := New(np, WithAskfor(kind))
				var nodes atomic.Int64
				f.Run(func(p *Proc) {
					p.Askfor([]any{depth}, func(task any, put func(any)) {
						d := task.(int)
						nodes.Add(1)
						if d > 0 {
							put(d - 1)
							for w := 0; w < width; w++ {
								put(0)
							}
						}
					})
				})
				if got := nodes.Load(); got != want {
					t.Errorf("np=%d: %d nodes, want %d", np, got, want)
				}
				if got := f.Stats().AskforTasks.Load(); got != want {
					t.Errorf("np=%d: askfor stat = %d, want %d", np, got, want)
				}
				f.Close()
			}
		})
	}
}

// TestAskforDynamicTreeStealingMatchesMonitor runs the same balanced tree
// under both pools and checks identical work is done.
func TestAskforDynamicTreeStealingMatchesMonitor(t *testing.T) {
	const np, d = 5, 9
	want := int64(1<<d - 1)
	for _, kind := range engine.PoolKinds() {
		f := New(np, WithAskfor(kind))
		var nodes atomic.Int64
		f.Run(func(p *Proc) {
			p.Askfor([]any{1}, func(task any, put func(any)) {
				nodes.Add(1)
				if task.(int) < d {
					put(task.(int) + 1)
					put(task.(int) + 1)
				}
			})
		})
		if nodes.Load() != want {
			t.Errorf("%s: %d nodes, want %d", kind, nodes.Load(), want)
		}
		f.Close()
	}
}

// TestSelfschedPcaseDisciplines deals Pcase blocks through the
// non-default selfscheduled disciplines (Variants.Selfsched).
func TestSelfschedPcaseDisciplines(t *testing.T) {
	for _, kind := range []sched.Kind{sched.SelfAtomic, sched.Chunk} {
		for _, np := range []int{1, 3, 8} {
			f := New(np, WithVariants(Variants{Selfsched: kind}))
			const nblocks = 11
			var runs [nblocks]atomic.Int64
			f.Run(func(p *Proc) {
				blocks := make([]Block, nblocks)
				for b := 0; b < nblocks; b++ {
					b := b
					blocks[b] = Case(func() { runs[b].Add(1) })
				}
				p.SelfschedPcase(blocks...)
			})
			for b := range runs {
				if got := runs[b].Load(); got != 1 {
					t.Errorf("%s np=%d: block %d ran %d times", kind, np, b, got)
				}
			}
			f.Close()
		}
	}
}

// TestCloseIdempotent: Close may be called repeatedly, also on forces
// that never ran.
func TestCloseIdempotent(t *testing.T) {
	f := New(2, WithMachine(machine.HEP))
	f.Run(func(p *Proc) {})
	f.Close()
	f.Close()
}

// TestCreationCostPaidOnce: with a costed machine profile, repeated Runs
// must not re-pay the per-process creation cost — the engine's workers
// were created once.  Generous bound: 50 empty Runs under fork-copy cost
// (200µs × np per creation) must finish far below the re-pay cost.
func TestCreationCostPaidOnce(t *testing.T) {
	f := New(4, WithMachine(machine.Encore))
	defer f.Close()
	for i := 0; i < 50; i++ {
		f.Run(func(p *Proc) {})
	}
	// Nothing to assert beyond completion: with the old spawn-per-Run
	// driver this loop cost 50×4×200µs of busy wait; BenchmarkCreation
	// quantifies the difference.
}
