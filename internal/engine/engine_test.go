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

func TestDequeLIFOAndFIFO(t *testing.T) {
	d := NewDeque[int](2)
	for i := 0; i < 10; i++ {
		d.Push(i)
	}
	if d.Size() != 10 {
		t.Fatalf("Size = %d", d.Size())
	}
	if v, ok := d.PopRef(); !ok || *v != 9 {
		t.Errorf("PopRef = %v,%v, want 9 (LIFO)", v, ok)
	}
	if v, ok := d.StealRef(); !ok || *v != 0 {
		t.Errorf("StealRef = %v,%v, want 0 (FIFO)", v, ok)
	}
	seen := map[int]bool{}
	for {
		v, ok := d.PopRef()
		if !ok {
			break
		}
		seen[*v] = true
	}
	if len(seen) != 8 {
		t.Errorf("drained %d elements, want 8", len(seen))
	}
	if _, ok := d.StealRef(); ok {
		t.Error("StealRef from empty deque succeeded")
	}
}

// TestDequeConcurrentExactlyOnce hammers one owner against several
// thieves and checks every pushed element is consumed exactly once.
func TestDequeConcurrentExactlyOnce(t *testing.T) {
	const items, thieves = 20000, 4
	d := NewDeque[int](8)
	var got [items]atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.StealRef(); ok {
					got[*v].Add(1)
					continue
				}
				select {
				case <-stop:
					// Final sweep after the owner stopped.
					for {
						v, ok := d.StealRef()
						if !ok {
							return
						}
						got[*v].Add(1)
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		d.Push(i)
		if i%3 == 0 {
			if v, ok := d.PopRef(); ok {
				got[*v].Add(1)
			}
		}
	}
	for {
		v, ok := d.PopRef()
		if !ok {
			break
		}
		got[*v].Add(1)
	}
	close(stop)
	wg.Wait()
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("element %d consumed %d times", i, n)
		}
	}
}

// drain runs np goroutines against a pool the way core.Askfor does and
// returns the number of executed tasks.
func drain(np int, p Pool, body func(task any, put func(pid int, t any), pid int)) int64 {
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
// (which lands in the putter's hand slot) has to be stealable by the
// other processes.  Regression test for the hand slot withholding work.
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
