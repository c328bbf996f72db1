package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/barrier"
	"repro/internal/machine"
	"repro/internal/sched"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestForceAccessors(t *testing.T) {
	f := New(4, WithMachine(machine.Encore), WithBarrier(barrier.CentralSense))
	if f.NP() != 4 {
		t.Errorf("NP() = %d", f.NP())
	}
	if f.Machine().Name != "encore" {
		t.Errorf("Machine() = %q", f.Machine().Name)
	}
}

func TestRunAllProcessesExecute(t *testing.T) {
	const np = 8
	f := New(np)
	var ids sync.Map
	f.Run(func(p *Proc) {
		if p.NP() != np {
			t.Errorf("p.NP() = %d", p.NP())
		}
		if p.Force() != f {
			t.Error("p.Force() mismatch")
		}
		if _, dup := ids.LoadOrStore(p.ID(), true); dup {
			t.Errorf("duplicate pid %d", p.ID())
		}
	})
	count := 0
	ids.Range(func(_, _ any) bool { count++; return true })
	if count != np {
		t.Errorf("%d distinct pids, want %d", count, np)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	f := New(3)
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	f.Run(func(p *Proc) { panic("boom") })
}

func TestRunReusable(t *testing.T) {
	f := New(4)
	var total atomic.Int64
	for i := 0; i < 3; i++ {
		f.Run(func(p *Proc) {
			p.Barrier()
			total.Add(1)
			p.Barrier()
		})
	}
	if got := total.Load(); got != 12 {
		t.Errorf("total = %d, want 12", got)
	}
}

func TestBarrierPhases(t *testing.T) {
	const np, phases = 6, 30
	f := New(np)
	stage := make([]atomic.Int64, np)
	f.Run(func(p *Proc) {
		for e := 1; e <= phases; e++ {
			stage[p.ID()].Store(int64(e))
			p.Barrier()
			for q := 0; q < np; q++ {
				if stage[q].Load() < int64(e) {
					t.Errorf("process %d passed barrier before %d arrived", p.ID(), q)
				}
			}
			p.Barrier()
		}
	})
	if got := f.Stats().Barriers.Load(); got != int64(np*phases*2) {
		t.Errorf("barrier stat = %d, want %d", got, np*phases*2)
	}
}

func TestBarrierSectionOnce(t *testing.T) {
	const np = 5
	f := New(np)
	runs := 0 // shared; guarded by barrier-section exclusivity
	f.Run(func(p *Proc) {
		for e := 1; e <= 20; e++ {
			p.BarrierSection(func() { runs++ })
			if runs != e {
				t.Errorf("after episode %d: section ran %d times", e, runs)
			}
		}
	})
}

func TestCriticalMutualExclusion(t *testing.T) {
	const np = 8
	f := New(np)
	counter := 0
	f.Run(func(p *Proc) {
		for i := 0; i < 500; i++ {
			p.Critical("ctr", func() { counter++ })
		}
	})
	if counter != np*500 {
		t.Errorf("counter = %d, want %d", counter, np*500)
	}
	if got := f.Stats().Criticals.Load(); got != int64(np*500) {
		t.Errorf("critical stat = %d", got)
	}
}

func TestCriticalDistinctNamesIndependent(t *testing.T) {
	f := New(2)
	var inA, inB atomic.Bool
	var overlapped atomic.Bool
	f.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Critical("a", func() {
				inA.Store(true)
				for i := 0; i < 1000; i++ {
					if inB.Load() {
						overlapped.Store(true)
					}
				}
				inA.Store(false)
			})
		} else {
			p.Critical("b", func() {
				inB.Store(true)
				for i := 0; i < 1000; i++ {
				}
				inB.Store(false)
			})
		}
	})
	// Distinct names may overlap; this documents independence (we only
	// require it not to deadlock, which reaching here proves).
	_ = overlapped.Load()
}

// loopVariants enumerates every DOALL entry point.
func loopVariants() map[string]func(p *Proc, r sched.Range, body func(int)) {
	return map[string]func(p *Proc, r sched.Range, body func(int)){
		"presched":       (*Proc).PreschedDo,
		"presched-block": (*Proc).PreschedBlockDo,
		"selfsched":      (*Proc).SelfschedDo,
		"self-atomic": func(p *Proc, r sched.Range, body func(int)) {
			p.DoAll(sched.SelfAtomic, r, body)
		},
		"chunk": (*Proc).ChunkDo,
	}
}

func TestDoallEveryIndexOnce(t *testing.T) {
	ranges := []sched.Range{
		{Start: 1, Last: 97, Incr: 1},
		{Start: 10, Last: -10, Incr: -2},
		{Start: 0, Last: -1, Incr: 1}, // empty
	}
	for name, do := range loopVariants() {
		name, do := name, do
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := New(5, WithChunk(4))
			for _, r := range ranges {
				hits := make(map[int]int)
				var mu sync.Mutex
				f.Run(func(p *Proc) {
					do(p, r, func(i int) {
						mu.Lock()
						hits[i]++
						mu.Unlock()
					})
				})
				if len(hits) != r.Count() {
					t.Errorf("%s %v: %d distinct indices, want %d", name, r, len(hits), r.Count())
				}
				for i, c := range hits {
					if c != 1 {
						t.Errorf("%s %v: index %d ran %d times", name, r, i, c)
					}
				}
			}
		})
	}
}

// TestDoallImplicitBarrier: no process proceeds past the loop before every
// iteration has executed.
func TestDoallImplicitBarrier(t *testing.T) {
	const np, n = 4, 200
	for name, do := range loopVariants() {
		name, do := name, do
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := New(np)
			var done atomic.Int64
			f.Run(func(p *Proc) {
				do(p, sched.Seq(n), func(i int) { done.Add(1) })
				if got := done.Load(); got != n {
					t.Errorf("process %d left the loop with %d/%d iterations done", p.ID(), got, n)
				}
			})
		})
	}
}

// TestDoallSequence: consecutive parallel loops keep SPMD construct
// identity straight (regression test for the construct-sequence table).
func TestDoallSequence(t *testing.T) {
	const np = 4
	f := New(np)
	var a, b, c atomic.Int64
	f.Run(func(p *Proc) {
		p.SelfschedDo(sched.Seq(50), func(i int) { a.Add(1) })
		p.PreschedDo(sched.Seq(60), func(i int) { b.Add(1) })
		p.SelfschedDo(sched.Seq(70), func(i int) { c.Add(1) })
	})
	if a.Load() != 50 || b.Load() != 60 || c.Load() != 70 {
		t.Errorf("loops ran %d/%d/%d iterations, want 50/60/70", a.Load(), b.Load(), c.Load())
	}
	if got := f.Stats().Loops.Load(); got != int64(3*np) {
		t.Errorf("loop stat = %d, want %d", got, 3*np)
	}
}

func TestDoall2Pairs(t *testing.T) {
	const np = 3
	r1 := sched.Range{Start: 1, Last: 4, Incr: 1}  // 4 values
	r2 := sched.Range{Start: 0, Last: 10, Incr: 5} // 3 values
	for _, kind := range []sched.Kind{sched.PreschedCyclic, sched.PreschedBlock, sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
		f := New(np)
		var mu sync.Mutex
		pairs := make(map[[2]int]int)
		f.Run(func(p *Proc) {
			body := func(i, j int) {
				mu.Lock()
				pairs[[2]int{i, j}]++
				mu.Unlock()
			}
			if kind == sched.PreschedCyclic {
				p.PreschedDo2(r1, r2, body) // the paper's spelling of the cyclic row
			} else {
				p.DoAll2(kind, r1, r2, body)
			}
		})
		if len(pairs) != 12 {
			t.Errorf("%s: %d distinct pairs, want 12", kind, len(pairs))
		}
		for pr, c := range pairs {
			if c != 1 {
				t.Errorf("%s: pair %v ran %d times", kind, pr, c)
			}
			if pr[0] < 1 || pr[0] > 4 || pr[1]%5 != 0 {
				t.Errorf("%s: unexpected pair %v", kind, pr)
			}
		}
	}
}

func TestPcaseEachBlockOnce(t *testing.T) {
	for _, selfsched := range []bool{false, true} {
		for _, np := range []int{1, 3, 8} {
			f := New(np)
			const nblocks = 7
			var runs [nblocks]atomic.Int64
			f.Run(func(p *Proc) {
				blocks := make([]Block, nblocks)
				for b := 0; b < nblocks; b++ {
					b := b
					blocks[b] = Case(func() { runs[b].Add(1) })
				}
				if selfsched {
					p.SelfschedPcase(blocks...)
				} else {
					p.Pcase(blocks...)
				}
			})
			for b := range runs {
				if got := runs[b].Load(); got != 1 {
					t.Errorf("selfsched=%v np=%d: block %d ran %d times", selfsched, np, b, got)
				}
			}
		}
	}
}

func TestPcaseConditions(t *testing.T) {
	f := New(4)
	var ran, skipped atomic.Int64
	f.Run(func(p *Proc) {
		p.Pcase(
			CaseIf(func() bool { return true }, func() { ran.Add(1) }),
			CaseIf(func() bool { return false }, func() { skipped.Add(1) }),
			Case(func() { ran.Add(1) }),
			Block{}, // nil body: ignored
		)
	})
	if ran.Load() != 2 || skipped.Load() != 0 {
		t.Errorf("ran=%d skipped=%d, want 2/0", ran.Load(), skipped.Load())
	}
	if got := f.Stats().PcaseBlocks.Load(); got != 2 {
		t.Errorf("pcase stat = %d, want 2", got)
	}
}

// TestPcaseImplicitBarrier: the construct ends with a full-force barrier.
func TestPcaseImplicitBarrier(t *testing.T) {
	const np = 4
	f := New(np)
	var done atomic.Int64
	f.Run(func(p *Proc) {
		p.Pcase(
			Case(func() { done.Add(1) }),
			Case(func() { done.Add(1) }),
			Case(func() { done.Add(1) }),
		)
		if got := done.Load(); got != 3 {
			t.Errorf("process %d left Pcase with %d/3 blocks done", p.ID(), got)
		}
	})
}

func TestAskforStaticTasks(t *testing.T) {
	const np, tasks = 4, 100
	f := New(np)
	var mu sync.Mutex
	got := map[int]int{}
	f.Run(func(p *Proc) {
		seed := make([]any, tasks)
		for i := range seed {
			seed[i] = i
		}
		p.Askfor(seed, func(task any, put func(any)) {
			mu.Lock()
			got[task.(int)]++
			mu.Unlock()
		})
	})
	if len(got) != tasks {
		t.Fatalf("%d distinct tasks, want %d", len(got), tasks)
	}
	for k, c := range got {
		if c != 1 {
			t.Errorf("task %d ran %d times", k, c)
		}
	}
	if f.Stats().AskforTasks.Load() != tasks {
		t.Errorf("askfor stat = %d", f.Stats().AskforTasks.Load())
	}
}

// TestAskforDynamicTree: tasks spawn subtasks ("request during run time
// that a new concurrent instance ... is executed"); every tree node must
// execute exactly once.
func TestAskforDynamicTree(t *testing.T) {
	const np, depth = 6, 8 // binary tree, 2^depth-1 nodes
	f := New(np)
	var nodes atomic.Int64
	f.Run(func(p *Proc) {
		p.Askfor([]any{1}, func(task any, put func(any)) {
			level := task.(int)
			nodes.Add(1)
			if level < depth {
				put(level + 1)
				put(level + 1)
			}
		})
	})
	if got, want := nodes.Load(), int64(1<<depth-1); got != want {
		t.Errorf("tree nodes = %d, want %d", got, want)
	}
}

func TestAskforEmptySeed(t *testing.T) {
	f := New(3)
	var ran atomic.Int64
	f.Run(func(p *Proc) {
		p.Askfor(nil, func(task any, put func(any)) { ran.Add(1) })
		p.Barrier() // the construct must terminate and keep the force aligned
	})
	if ran.Load() != 0 {
		t.Errorf("empty Askfor ran %d tasks", ran.Load())
	}
}

// TestAskforImplicitBarrier: no process proceeds until the pool drains.
func TestAskforImplicitBarrier(t *testing.T) {
	const np = 4
	f := New(np)
	var done atomic.Int64
	f.Run(func(p *Proc) {
		seed := []any{0, 1, 2, 3, 4, 5, 6, 7}
		p.Askfor(seed, func(task any, put func(any)) { done.Add(1) })
		if got := done.Load(); got != 8 {
			t.Errorf("process %d left Askfor with %d/8 tasks done", p.ID(), got)
		}
	})
}

func TestResolvePartition(t *testing.T) {
	const np = 8
	f := New(np)
	var mu sync.Mutex
	membership := map[int][]int{} // component -> sub ids observed
	subNP := map[int]int{}
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 3, Body: func(sp *Proc) {
				mu.Lock()
				membership[0] = append(membership[0], sp.ID())
				subNP[0] = sp.NP()
				mu.Unlock()
				sp.Barrier() // component-scoped barrier must not involve component 1
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				mu.Lock()
				membership[1] = append(membership[1], sp.ID())
				subNP[1] = sp.NP()
				mu.Unlock()
				sp.Barrier()
			}},
		)
	})
	if got := len(membership[0]) + len(membership[1]); got != np {
		t.Fatalf("%d processes participated, want %d", got, np)
	}
	if subNP[0] != 6 || subNP[1] != 2 {
		t.Errorf("sub NPs = %d/%d, want 6/2 (3:1 split of 8)", subNP[0], subNP[1])
	}
	for c, ids := range membership {
		sort.Ints(ids)
		for r, id := range ids {
			if id != r {
				t.Errorf("component %d sub-ids = %v, want 0..%d", c, ids, len(ids)-1)
				break
			}
		}
	}
}

func TestResolveMoreComponentsThanProcesses(t *testing.T) {
	const np = 2
	f := New(np)
	var runs [5]atomic.Int64
	f.Run(func(p *Proc) {
		var comps []Component
		for c := 0; c < 5; c++ {
			c := c
			comps = append(comps, Component{Weight: 1, Body: func(sp *Proc) {
				if sp.ID() == 0 {
					runs[c].Add(1)
				}
				sp.Barrier()
			}})
		}
		p.Resolve(comps...)
	})
	for c := range runs {
		if got := runs[c].Load(); got != 1 {
			t.Errorf("component %d executed %d times (by sub-pid 0), want 1", c, got)
		}
	}
}

func TestResolveEmptyAndWeightDefaults(t *testing.T) {
	f := New(3)
	f.Run(func(p *Proc) {
		p.Resolve() // no components: just the closing barrier
		var nps []int
		var mu sync.Mutex
		p.Resolve(
			Component{Body: func(sp *Proc) { // weight defaults to 1
				mu.Lock()
				nps = append(nps, sp.NP())
				mu.Unlock()
			}},
			Component{Body: func(sp *Proc) {
				mu.Lock()
				nps = append(nps, sp.NP())
				mu.Unlock()
			}},
		)
		if p.ID() == 0 {
			total := 0
			_ = total
		}
	})
}

func TestAsyncVarThroughForce(t *testing.T) {
	for _, m := range machine.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			f := New(2, WithMachine(m))
			v := NewAsync[int](f)
			var got atomic.Int64
			f.Run(func(p *Proc) {
				if p.ID() == 0 {
					for i := 1; i <= 50; i++ {
						v.Produce(i)
					}
				} else {
					sum := 0
					for i := 1; i <= 50; i++ {
						sum += v.Consume()
					}
					got.Store(int64(sum))
				}
			})
			if got.Load() != 50*51/2 {
				t.Errorf("consumed sum = %d, want %d", got.Load(), 50*51/2)
			}
		})
	}
}

// TestConformanceAllMachines runs the full construct checklist on every
// machine profile and every barrier algorithm — the portability matrix of
// experiment T1 in test form.
func TestConformanceAllMachines(t *testing.T) {
	for _, m := range machine.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			if err := Conformance(m, 4); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		})
	}
}

func TestConformanceAllBarriers(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		bk := bk
		t.Run(bk.String(), func(t *testing.T) {
			t.Parallel()
			if err := ConformanceWith(machine.Native, bk, 5); err != nil {
				t.Errorf("%v: %v", bk, err)
			}
		})
	}
}

// Property: a prescheduled sum over a random range equals the closed form,
// for random np.
func TestQuickPreschedSum(t *testing.T) {
	prop := func(npRaw, nRaw uint8) bool {
		np := int(npRaw)%8 + 1
		n := int(nRaw) % 300
		f := New(np)
		var sum atomic.Int64
		f.Run(func(p *Proc) {
			p.PreschedDo(sched.Seq(n), func(i int) { sum.Add(int64(i)) })
		})
		return sum.Load() == int64(n*(n-1)/2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Askfor over a random task multiset conserves work.
func TestQuickAskforConservation(t *testing.T) {
	prop := func(npRaw uint8, tasks []uint8) bool {
		np := int(npRaw)%6 + 1
		f := New(np)
		var sum atomic.Int64
		want := int64(0)
		seed := make([]any, len(tasks))
		for i, v := range tasks {
			seed[i] = int(v)
			want += int64(v)
		}
		f.Run(func(p *Proc) {
			p.Askfor(seed, func(task any, put func(any)) {
				sum.Add(int64(task.(int)))
			})
		})
		return sum.Load() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
