package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestRunAllWorkers(t *testing.T) {
	const np = 8
	e := New(np)
	defer e.Close()
	if e.NP() != np {
		t.Fatalf("NP() = %d", e.NP())
	}
	var seen sync.Map
	var count atomic.Int64
	e.Run(func(pid int) {
		count.Add(1)
		if _, dup := seen.LoadOrStore(pid, true); dup {
			t.Errorf("duplicate pid %d", pid)
		}
	})
	if count.Load() != np {
		t.Errorf("ran %d workers, want %d", count.Load(), np)
	}
}

// TestRunReuse is the persistent-force property: many Runs on one engine
// all execute on the same NP workers.
func TestRunReuse(t *testing.T) {
	const np, runs = 4, 50
	e := New(np)
	defer e.Close()
	var total atomic.Int64
	for r := 0; r < runs; r++ {
		e.Run(func(pid int) { total.Add(1) })
	}
	if got := total.Load(); got != np*runs {
		t.Errorf("total = %d, want %d", got, np*runs)
	}
}

func TestWorkerStartRunsOncePerWorker(t *testing.T) {
	var starts atomic.Int64
	e := New(5, WithWorkerStart(func(pid int) { starts.Add(1) }))
	defer e.Close()
	if starts.Load() != 5 {
		t.Fatalf("start hook ran %d times before New returned, want 5", starts.Load())
	}
	e.Run(func(pid int) {})
	e.Run(func(pid int) {})
	if starts.Load() != 5 {
		t.Errorf("start hook re-ran on Run: %d", starts.Load())
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	e := New(3)
	defer e.Close()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		e.Run(func(pid int) { panic("boom") })
	}()
	// The workers must survive a panicking job.
	var ok atomic.Bool
	e.Run(func(pid int) { ok.Store(true) })
	if !ok.Load() {
		t.Error("engine dead after panic")
	}
}

func TestCloseIdempotentAndRunPanics(t *testing.T) {
	e := New(2)
	e.Close()
	e.Close()
	defer func() {
		if recover() == nil {
			t.Error("Run on closed engine did not panic")
		}
	}()
	e.Run(func(pid int) {})
}

// drain runs np goroutines against a pool the way core.Askfor does and
// returns the number of executed tasks.
func drain(np int, p *Pool, body func(task any, put func(pid int, t any), pid int)) int64 {
	var ran atomic.Int64
	var wg sync.WaitGroup
	for pid := 0; pid < np; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for {
				task, ok := p.Next(pid)
				if !ok {
					return
				}
				ran.Add(1)
				body(task, p.Put, pid)
				p.Done(pid)
			}
		}(pid)
	}
	wg.Wait()
	return ran.Load()
}

// TestPoolUnbalancedTreeTerminates is the put-heavy termination check for
// both pool disciplines: an unbalanced (left-deep) tree expansion whose
// node count is known in advance must execute every node exactly once and
// terminate, under the race detector, for every NP.
func TestPoolUnbalancedTreeTerminates(t *testing.T) {
	// Left-deep tree: a node (d, heavy=true) spawns a heavy child and
	// width light leaves; total nodes = depth*(width+1) + 1.
	const depth, width = 200, 8
	want := int64(depth*(width+1) + 1)
	for _, kind := range PoolKinds() {
		for _, np := range []int{1, 2, 4, 8} {
			p := NewPool(kind, np, []any{depth}, nil)
			ran := drain(np, p, func(task any, put func(pid int, t any), pid int) {
				d := task.(int)
				if d > 0 {
					put(pid, d-1) // the heavy spine
					for w := 0; w < width; w++ {
						put(pid, 0) // light leaves
					}
				}
			})
			if ran != want {
				t.Errorf("%s np=%d: ran %d tasks, want %d", kind, np, ran, want)
			}
		}
	}
}

// TestPoolPutThenBlockStaysLive: a body that puts a task and then blocks
// until that task has executed must not deadlock — the freshly put task
// (which lands on the putter's own stack) has to be takeable by the
// other processes.
func TestPoolPutThenBlockStaysLive(t *testing.T) {
	for _, kind := range PoolKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const np = 2
			p := NewPool(kind, np, []any{"parent"}, nil)
			childDone := make(chan struct{})
			done := make(chan struct{})
			go func() {
				drain(np, p, func(task any, put func(pid int, t any), pid int) {
					switch task.(string) {
					case "parent":
						put(pid, "child")
						<-childDone // block until the child has run
					case "child":
						close(childDone)
					}
				})
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("pool deadlocked: put task was withheld from the force")
			}
		})
	}
}

func TestPoolEmptySeed(t *testing.T) {
	for _, kind := range PoolKinds() {
		p := NewPool(kind, 3, nil, nil)
		if ran := drain(3, p, func(any, func(int, any), int) {}); ran != 0 {
			t.Errorf("%s: empty pool ran %d tasks", kind, ran)
		}
	}
}

func TestPoolSeedDistribution(t *testing.T) {
	for _, kind := range PoolKinds() {
		const np, tasks = 4, 100
		seed := make([]any, tasks)
		sum := 0
		for i := range seed {
			seed[i] = i
			sum += i
		}
		p := NewPool(kind, np, seed, nil)
		var got atomic.Int64
		ran := drain(np, p, func(task any, _ func(int, any), _ int) {
			got.Add(int64(task.(int)))
		})
		if ran != tasks || got.Load() != int64(sum) {
			t.Errorf("%s: ran %d sum %d, want %d sum %d", kind, ran, got.Load(), tasks, sum)
		}
	}
}

// TestPoolSteadyStateZeroAllocs: once a pool's stacks have grown to the
// backlog, a Put/Next/Done cycle allocates nothing, under both kinds and
// whether the taker is the putter or not.
func TestPoolSteadyStateZeroAllocs(t *testing.T) {
	var task any = "task"
	for _, kind := range PoolKinds() {
		p := NewPool(kind, 2, []any{task, task}, nil)
		allocs := testing.AllocsPerRun(1000, func() {
			for pid := 0; pid < 2; pid++ { // pid 1 takes from pid 0's stack
				p.Put(0, task)
				if _, ok := p.Next(pid); !ok {
					t.Fatal("pool drained early")
				}
				p.Done(pid)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Put/Next/Done, want 0", kind, allocs)
		}
	}
}

// TestPoolShardStaysBounded: a standing backlog that the owner feeds at
// its newest end while a thief takes from its oldest end must not grow
// the stack's backing array with the number of rounds.
func TestPoolShardStaysBounded(t *testing.T) {
	const backlog, rounds = 10, 100000
	p := NewPool(StealingPool, 2, nil, nil)
	for i := 0; i < backlog; i++ {
		p.Put(0, i)
	}
	for r := 0; r < rounds; r++ {
		p.Put(0, r)
		p.Put(0, r)
		if _, ok := p.Next(0); !ok {
			t.Fatal("owner found its stack empty")
		}
		if _, ok := p.Next(1); !ok {
			t.Fatal("thief found nothing to take")
		}
		p.Done(0)
		p.Done(1)
	}
	if c := cap(p.shards[0].tasks); c > 4*backlog {
		t.Errorf("stack grew to %d slots for a backlog of %d", c, backlog)
	}
}
