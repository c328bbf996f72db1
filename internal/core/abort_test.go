package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/sched"
)

// runExpectPanic runs program on f expecting Run to re-panic, returns
// the recovered value, and fails the test if the run does not finish
// within the deadline — the hang this PR exists to eliminate.
func runExpectPanic(t *testing.T, f *Force, program func(p *Proc)) any {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		f.Run(program)
		got <- nil
	}()
	select {
	case v := <-got:
		if v == nil {
			t.Fatal("Run returned without panicking")
		}
		return v
	case <-time.After(30 * time.Second):
		t.Fatal("aborted Run did not finish: force is hung")
		return nil
	}
}

var errBoom = errors.New("boom")

// TestAbortWakesBarrierPeers is the core-level repro of the issue: one
// process fails before the barrier its peers are already inside; the
// poison protocol must wake them, and Run must re-panic the original
// failure — under every barrier algorithm.
func TestAbortWakesBarrierPeers(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		t.Run(bk.String(), func(t *testing.T) {
			f := New(4, WithVariants(Variants{Barrier: bk}))
			defer f.Close()
			v := runExpectPanic(t, f, func(p *Proc) {
				if p.ID() == 1 {
					panic(errBoom)
				}
				p.Barrier()
			})
			if v != any(errBoom) {
				t.Fatalf("Run re-panicked %v, want the original %v", v, errBoom)
			}
		})
	}
}

// TestForceSurvivesAbortedRun verifies persistent-engine reuse: the
// same force completes a correct Run after an aborted one, with fresh
// construct state.
func TestForceSurvivesAbortedRun(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		t.Run(bk.String(), func(t *testing.T) {
			f := New(4, WithVariants(Variants{Barrier: bk}))
			defer f.Close()
			for round := 0; round < 3; round++ {
				runExpectPanic(t, f, func(p *Proc) {
					p.Barrier() // a completed construct before the failure
					if p.ID() == 2 {
						panic(fmt.Errorf("round %d failure", round))
					}
					p.Barrier()
					p.Barrier()
				})
				// The next Run must start clean: barriers, loops and a
				// reduction all line up again.
				var sum atomic.Int64
				f.Run(func(p *Proc) {
					p.Barrier()
					p.PreschedDo(sched.Seq(40), func(i int) { sum.Add(int64(i)) })
					if got := Gsum(p, 1); got != 4 {
						panic(fmt.Sprintf("Gsum after abort = %d, want 4", got))
					}
				})
				if sum.Load() != 780 {
					t.Fatalf("round %d: loop after abort summed %d, want 780", round, sum.Load())
				}
				sum.Store(0)
			}
		})
	}
}

// TestAbortInsideConstructs covers non-uniform failures at each
// construct class: the erring process dies inside the construct while
// peers are blocked in (or before) it.
func TestAbortInsideConstructs(t *testing.T) {
	cases := map[string]func(p *Proc){
		"critical": func(p *Proc) {
			if p.ID() == 0 {
				p.Critical("L", func() { panic(errBoom) })
			}
			p.Barrier()
		},
		"doall body": func(p *Proc) {
			p.SelfschedDo(sched.Seq(64), func(i int) {
				if i == 7 {
					panic(errBoom)
				}
			})
		},
		"reduce missing contributor": func(p *Proc) {
			if p.ID() == 3 {
				panic(errBoom)
			}
			Gsum(p, 1)
		},
		"pcase": func(p *Proc) {
			p.Pcase(
				Case(func() { panic(errBoom) }),
				Case(func() {}),
				Case(func() {}),
				Case(func() {}),
			)
		},
		"barrier section": func(p *Proc) {
			p.BarrierSection(func() { panic(errBoom) })
		},
	}
	for name, program := range cases {
		t.Run(name, func(t *testing.T) {
			f := New(4)
			defer f.Close()
			if v := runExpectPanic(t, f, program); v != any(errBoom) {
				t.Fatalf("Run re-panicked %v, want %v", v, errBoom)
			}
			// Reuse after each abort.
			f.Run(func(p *Proc) { p.Barrier() })
		})
	}
}

// TestAbortInsideBlockSpan pins the in-span poison cadence of the
// per-index entry points: pid 0 fails on its first index of a long
// block-dealt loop while its peers are inside their own blocks; each peer
// must stop within PoisonEvery iterations of the poison, not at the end
// of its 250 000-iteration block.
func TestAbortInsideBlockSpan(t *testing.T) {
	const np, n = 4, 1_000_000
	f := New(np)
	defer f.Close()
	var after [np]struct {
		n int // iterations this process ran once the force was poisoned
		_ [56]byte
	}
	var inside atomic.Int32 // peers holding their first iteration
	v := runExpectPanic(t, f, func(p *Proc) {
		p.DoAll(sched.PreschedBlock, sched.Seq(n), func(i int) {
			if p.ID() == 0 {
				for inside.Load() < np-1 {
					runtime.Gosched()
				}
				panic(errBoom)
			}
			c := &after[p.ID()]
			if c.n == 0 {
				// Hold the first iteration until the failure has landed,
				// so every iteration counted below runs poisoned.
				inside.Add(1)
				for !f.Fault().Poisoned() {
					runtime.Gosched()
				}
			}
			c.n++
		})
	})
	if v != any(errBoom) {
		t.Fatalf("Run re-panicked %v, want %v", v, errBoom)
	}
	for pid := 1; pid < np; pid++ {
		if got := after[pid].n; got > 2*PoisonEvery {
			t.Errorf("process %d ran %d iterations after the poison, want at most %d", pid, got, 2*PoisonEvery)
		}
	}
}

// TestAbortInsideResolve: a component body failing inside Resolve
// aborts the whole construct — peers in sibling components (blocked in
// their sub-barriers) and in the closing full barrier wake — and the
// force stays reusable, under either barrier kind.
func TestAbortInsideResolve(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		t.Run(bk.String(), func(t *testing.T) {
			f := New(4, WithVariants(Variants{Barrier: bk}))
			defer f.Close()
			for round := 0; round < 2; round++ {
				v := runExpectPanic(t, f, func(p *Proc) {
					p.Resolve(
						Component{Weight: 1, Body: func(sp *Proc) {
							if sp.ID() == 0 {
								panic(errBoom)
							}
							sp.Barrier()
						}},
						Component{Weight: 1, Body: func(sp *Proc) {
							sp.Barrier()
							sp.Barrier() // second episode never fills once poisoned
							sp.Barrier()
						}},
					)
				})
				if v != any(errBoom) {
					t.Fatalf("Run re-panicked %v, want %v", v, errBoom)
				}
				f.Run(func(p *Proc) { p.Barrier() })
			}
		})
	}
}

// TestAbortWakesAskforWaiters: one process draws the only task and dies
// in it while the peers are parked waiting for work, under both pool
// disciplines.
func TestAbortWakesAskforWaiters(t *testing.T) {
	for _, pk := range engine.PoolKinds() {
		t.Run(pk.String(), func(t *testing.T) {
			f := New(4, WithVariants(Variants{Askfor: pk}))
			defer f.Close()
			v := runExpectPanic(t, f, func(p *Proc) {
				p.Askfor([]any{0}, func(task any, put func(any)) {
					// Give the peers time to park in Next before dying.
					time.Sleep(20 * time.Millisecond)
					panic(errBoom)
				})
			})
			if v != any(errBoom) {
				t.Fatalf("Run re-panicked %v, want %v", v, errBoom)
			}
			f.Run(func(p *Proc) { p.Barrier() })
		})
	}
}

// TestAbortWakesAsyncConsumer: a Consume no Produce will ever match
// must unwind when a peer fails.
func TestAbortWakesAsyncConsumer(t *testing.T) {
	f := New(4)
	defer f.Close()
	av := NewAsync[int](f)
	v := runExpectPanic(t, f, func(p *Proc) {
		switch p.ID() {
		case 0:
			av.Consume() // never produced
		case 1:
			time.Sleep(20 * time.Millisecond)
			panic(errBoom)
		}
	})
	if v != any(errBoom) {
		t.Fatalf("Run re-panicked %v, want %v", v, errBoom)
	}
	f.Run(func(p *Proc) { p.Barrier() })
}

// TestExternalPoisonAbortsRun: poisoning the force's Fault cell from
// outside wakes a process blocked in a barrier that can never fill.
func TestExternalPoisonAbortsRun(t *testing.T) {
	f := New(4)
	defer f.Close()
	stall := errors.New("external abort")
	go func() {
		time.Sleep(50 * time.Millisecond)
		f.Fault().Poison(stall)
	}()
	v := runExpectPanic(t, f, func(p *Proc) {
		if p.ID() == 0 {
			p.Barrier() // peers never arrive: non-conformant program
		}
	})
	if v != any(stall) {
		t.Fatalf("Run re-panicked %v, want %v", v, stall)
	}
	f.Run(func(p *Proc) { p.Barrier() })
}

// TestBlockedReport: Blocked, the report forcerun -timeout prints,
// names the construct each process is blocked at.
func TestBlockedReport(t *testing.T) {
	f := New(2)
	defer f.Close()
	entered := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer func() { _ = recover() }() // the poisoned Run re-panics
		f.Run(func(p *Proc) {
			if p.ID() == 0 {
				close(entered)
				p.Barrier()
			} else {
				<-entered
				time.Sleep(500 * time.Millisecond)
			}
		})
	}()
	<-entered
	time.Sleep(100 * time.Millisecond)
	sites := f.Blocked()
	if sites[0] != "Barrier" {
		t.Fatalf("Blocked()[0] = %q, want Barrier", sites[0])
	}
	f.Fault().Poison(errors.New("unstick"))
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned run did not drain")
	}
}
