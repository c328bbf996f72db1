package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/barrier"
	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/shm"
)

// Conformance runs the full Force construct checklist on one machine
// profile with the paper's two-lock barrier and reports the first
// violation.  It is the per-cell check of the six-machine portability
// matrix (experiment T1): the same program must produce the same results
// on every machine, differing only in which machine-dependent primitives
// it exercised.
func Conformance(m machine.Profile, np int) error {
	return ConformanceWith(m, barrier.TwoLock, np)
}

// ConformanceWith is Conformance with an explicit barrier algorithm.
func ConformanceWith(m machine.Profile, bk barrier.Kind, np int) error {
	checks := []struct {
		name string
		run  func(m machine.Profile, bk barrier.Kind, np int) error
	}{
		{"driver", checkDriver},
		{"barrier", checkBarrier},
		{"barrier-section", checkBarrierSection},
		{"critical", checkCritical},
		{"presched-do", checkPreschedDo},
		{"selfsched-do", checkSelfschedDo},
		{"doall-2d", checkDoall2},
		{"pcase", checkPcase},
		{"askfor", checkAskfor},
		{"reduce", checkReduce},
		{"resolve", checkResolve},
		{"produce-consume", checkProduceConsume},
		{"void", checkVoid},
		{"shared-memory-layout", checkSharedLayout},
	}
	for _, c := range checks {
		if err := c.run(m, bk, np); err != nil {
			return fmt.Errorf("%s/%s: %s: %w", m.Name, bk, c.name, err)
		}
	}
	return nil
}

func newConfForce(m machine.Profile, bk barrier.Kind, np int) *Force {
	return New(np, WithMachine(m), WithVariants(Variants{Barrier: bk}))
}

func checkDriver(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var seen sync.Map
	var count atomic.Int64
	f.Run(func(p *Proc) {
		count.Add(1)
		if _, dup := seen.LoadOrStore(p.ID(), true); dup {
			count.Add(1000)
		}
	})
	if count.Load() != int64(np) {
		return fmt.Errorf("driver ran %d processes, want %d", count.Load(), np)
	}
	return nil
}

func checkBarrier(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var counter atomic.Int64
	var bad atomic.Int64
	f.Run(func(p *Proc) {
		for e := 1; e <= 10; e++ {
			counter.Add(1)
			p.Barrier()
			if counter.Load() != int64(np*e) {
				bad.Add(1)
			}
			p.Barrier()
		}
	})
	if bad.Load() != 0 {
		return fmt.Errorf("%d barrier episodes leaked", bad.Load())
	}
	return nil
}

func checkBarrierSection(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	runs := 0
	var bad atomic.Int64
	f.Run(func(p *Proc) {
		for e := 1; e <= 10; e++ {
			p.BarrierSection(func() { runs++ })
			if runs != e {
				bad.Add(1)
			}
		}
	})
	if runs != 10 || bad.Load() != 0 {
		return fmt.Errorf("section ran %d times (want 10), %d bad observations", runs, bad.Load())
	}
	return nil
}

func checkCritical(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	counter := 0
	f.Run(func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Critical("c", func() { counter++ })
		}
	})
	if counter != np*200 {
		return fmt.Errorf("critical counter = %d, want %d", counter, np*200)
	}
	return nil
}

func checkLoop(f *Force, do func(p *Proc, r sched.Range, body func(int))) error {
	r := sched.Range{Start: 3, Last: 150, Incr: 3}
	var sum atomic.Int64
	f.Run(func(p *Proc) {
		do(p, r, func(i int) { sum.Add(int64(i)) })
	})
	want := int64(0)
	for k := 0; k < r.Count(); k++ {
		want += int64(r.Index(k))
	}
	if sum.Load() != want {
		return fmt.Errorf("loop sum = %d, want %d", sum.Load(), want)
	}
	return nil
}

func checkPreschedDo(m machine.Profile, bk barrier.Kind, np int) error {
	return checkLoop(newConfForce(m, bk, np), (*Proc).PreschedDo)
}

func checkSelfschedDo(m machine.Profile, bk barrier.Kind, np int) error {
	return checkLoop(newConfForce(m, bk, np), (*Proc).SelfschedDo)
}

func checkDoall2(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var cells atomic.Int64
	f.Run(func(p *Proc) {
		p.DoAll2(sched.SelfLock, sched.Seq(7), sched.Seq(9), func(i, j int) { cells.Add(1) })
	})
	if cells.Load() != 63 {
		return fmt.Errorf("2D loop ran %d cells, want 63", cells.Load())
	}
	return nil
}

func checkPcase(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var runs [5]atomic.Int64
	f.Run(func(p *Proc) {
		p.Pcase(
			Case(func() { runs[0].Add(1) }),
			Case(func() { runs[1].Add(1) }),
			CaseIf(func() bool { return true }, func() { runs[2].Add(1) }),
			CaseIf(func() bool { return false }, func() { runs[3].Add(1) }),
			Case(func() { runs[4].Add(1) }),
		)
	})
	want := []int64{1, 1, 1, 0, 1}
	for i, w := range want {
		if runs[i].Load() != w {
			return fmt.Errorf("pcase block %d ran %d times, want %d", i, runs[i].Load(), w)
		}
	}
	return nil
}

func checkAskfor(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var nodes atomic.Int64
	f.Run(func(p *Proc) {
		p.Askfor([]any{1}, func(task any, put func(any)) {
			d := task.(int)
			nodes.Add(1)
			if d < 6 {
				put(d + 1)
				put(d + 1)
			}
		})
	})
	if got, want := nodes.Load(), int64(1<<6-1); got != want {
		return fmt.Errorf("askfor tree = %d nodes, want %d", got, want)
	}
	return nil
}

func checkReduce(m machine.Profile, bk barrier.Kind, np int) error {
	// Every strategy must produce the same values on every machine; the
	// Critical strategy exercises the machine's own lock mechanism.
	for _, k := range reduce.Kinds() {
		f := New(np, WithMachine(m), WithVariants(Variants{Barrier: bk, Reduce: k}))
		var bad atomic.Int64
		f.Run(func(p *Proc) {
			if Gsum(p, p.ID()+1) != np*(np+1)/2 {
				bad.Add(1)
			}
			if Gmax(p, float64(p.ID())) != float64(np-1) {
				bad.Add(1)
			}
			if Gand(p, true) != true || Gor(p, p.ID() == 0) != true {
				bad.Add(1)
			}
		})
		f.Close()
		if bad.Load() != 0 {
			return fmt.Errorf("strategy %s: %d wrong reduction results", k, bad.Load())
		}
	}
	return nil
}

func checkResolve(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	var a, b atomic.Int64
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.PreschedDo(sched.Seq(40), func(i int) { a.Add(1) })
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				sp.PreschedDo(sched.Seq(50), func(i int) { b.Add(1) })
			}},
		)
	})
	if a.Load() != 40 || b.Load() != 50 {
		return fmt.Errorf("resolve components ran %d/%d iterations, want 40/50", a.Load(), b.Load())
	}
	return nil
}

func checkProduceConsume(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	v := NewAsync[int](f)
	var sum atomic.Int64
	const items = 40
	var budget atomic.Int64
	budget.Store(items)
	f.Run(func(p *Proc) {
		if p.NP() == 1 {
			// A force of one alternates produce and consume (the
			// cell holds a single value).
			for i := 1; i <= items; i++ {
				v.Produce(i)
				sum.Add(int64(v.Consume()))
			}
			return
		}
		if p.ID() == 0 {
			// Process 0 produces; the rest of the force competes to
			// consume, splitting a fixed budget.
			for i := 1; i <= items; i++ {
				v.Produce(i)
			}
			return
		}
		for budget.Add(-1) >= 0 {
			sum.Add(int64(v.Consume()))
		}
	})
	if want := int64(items * (items + 1) / 2); sum.Load() != want {
		return fmt.Errorf("produce/consume sum = %d, want %d", sum.Load(), want)
	}
	return nil
}

func checkVoid(m machine.Profile, bk barrier.Kind, np int) error {
	f := newConfForce(m, bk, np)
	v := NewAsync[int](f)
	v.Produce(9)
	v.Void()
	if v.IsFull() {
		return fmt.Errorf("async variable full after Void")
	}
	v.Produce(11)
	if got := v.Consume(); got != 11 {
		return fmt.Errorf("consume after void = %d, want 11", got)
	}
	return nil
}

func checkSharedLayout(m machine.Profile, bk barrier.Kind, np int) error {
	a := m.NewArena(123) // deliberately unaligned base
	if err := a.Register("main",
		shm.Decl{Name: "A", Shared: true, Size: 400},
		shm.Decl{Name: "V", Shared: true, Size: 8},
		shm.Decl{Name: "I", Size: 8},
	); err != nil {
		return err
	}
	if err := a.Register("sub",
		shm.Decl{Name: "B", Shared: true, Size: 128},
		shm.Decl{Name: "T", Size: 64},
	); err != nil {
		return err
	}
	// The Sequent two-pass protocol: consult the linker commands first.
	a.LinkerCommands()
	if err := a.Finalize(); err != nil {
		return err
	}
	return a.CheckSeparation()
}
