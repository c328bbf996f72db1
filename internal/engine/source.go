package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/poison"
)

// Pool is the Askfor work source: tasks may be added while the pool is
// being drained — the Askfor's "request during run time that a new
// concurrent instance of the code segment is executed".  Every task
// handed out by Next must be matched by exactly one Done call; the pool
// terminates (Next returns ok=false everywhere) when no task is queued
// and none is executing.
//
// The tasks sit on stacks, each behind a lock of its own — the paper's
// machine-dependent layer of locks (§4.1) and nothing else.  A process
// pops the newest task of its own stack (depth-first expansion keeps a
// putter on its own subtree); a process whose stack is empty takes the
// oldest task of another stack, the root of the largest subtree left
// there.  An idle process waits through poison.Wait like every other
// waiter of the runtime, so it observes the force's poison within one
// park interval.  The two kinds differ only in the number of stacks.
// Termination uses an outstanding counter (queued + executing tasks).
type Pool struct {
	shards      []shard
	outstanding atomic.Int64
	pc          *poison.Cell
}

// shard is one locked task stack; tasks[head:] are queued, newest last.
// Padded so neighbouring shards do not false-share a cache line.
type shard struct {
	mu    sync.Mutex
	head  int
	tasks []any
	_     [24]byte
}

// PoolKind selects how many stacks a Pool has; each constant says which
// rule of README's "Which variants exist" keeps it.
type PoolKind int

const (
	// StealingPool gives every process a stack of its own and lets an
	// idle process take another stack's oldest task.  Kept by rule (b):
	// it is the default every tier runs.
	StealingPool PoolKind = iota
	// MonitorPool is the historical baseline: one central stack behind
	// one lock, the [LO83] askfor monitor discipline the paper cites.
	// Kept by rule (a).
	MonitorPool
)

// String returns the pool kind's short name.
func (k PoolKind) String() string {
	switch k {
	case StealingPool:
		return "stealing"
	case MonitorPool:
		return "monitor"
	default:
		return fmt.Sprintf("engine.PoolKind(%d)", int(k))
	}
}

// PoolKinds lists the pool kinds in presentation order.
func PoolKinds() []PoolKind { return []PoolKind{MonitorPool, StealingPool} }

// ParsePoolKind converts a short name into a PoolKind.
func ParsePoolKind(s string) (PoolKind, error) {
	for _, k := range PoolKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown pool kind %q (kinds: %v)", s, PoolKinds())
}

// NewPool creates a task pool for np processes, pre-loaded with the seed
// tasks.  The constructor must complete before any process uses the pool
// (the core runtime publishes it through a sync.Once).  A non-nil cell
// binds the pool to the force's fault-containment protocol: a process
// waiting for tasks unwinds with poison.Abort when the force is poisoned
// (a peer died mid-task, so the pool can never drain).
func NewPool(kind PoolKind, np int, seed []any, cell *poison.Cell) *Pool {
	if np <= 0 {
		panic(fmt.Sprintf("engine: np = %d, need np >= 1", np))
	}
	n := 1 // MonitorPool: one central stack
	switch kind {
	case StealingPool:
		n = np
	case MonitorPool:
	default:
		panic(fmt.Sprintf("engine: unknown pool kind %d", int(kind)))
	}
	const room = 16 // initial stack capacity, carved from one backing array
	p := &Pool{shards: make([]shard, n), pc: cell}
	buf := make([]any, n*room)
	for i := range p.shards {
		p.shards[i].tasks = buf[i*room : i*room : (i+1)*room]
	}
	for i, t := range seed {
		p.shards[i%n].push(t)
	}
	p.outstanding.Store(int64(len(seed)))
	return p
}

// own returns pid's stack: its own under StealingPool, the one central
// stack under MonitorPool.
func (p *Pool) own(pid int) *shard { return &p.shards[min(pid, len(p.shards)-1)] }

// Put adds a task on behalf of process pid.  It must be called by the
// goroutine that is pid — the task lands on pid's own stack.
func (p *Pool) Put(pid int, task any) {
	p.outstanding.Add(1)
	s := p.own(pid)
	s.mu.Lock()
	s.push(task)
	s.mu.Unlock()
}

// Done records that a task returned by Next finished executing.
func (p *Pool) Done(pid int) { p.outstanding.Add(-1) }

// Next returns the next task for process pid; ok is false when the
// whole pool has drained.
func (p *Pool) Next(pid int) (any, bool) {
	if t, ok := p.take(pid); ok {
		return t, true
	}
	return p.wait(pid)
}

// wait is Next's slow path, kept out of Next so that the wait closure's
// captures do not make every Next allocate.
func (p *Pool) wait(pid int) (task any, ok bool) {
	faultinject.Fire(faultinject.EnginePark, pid, p.pc)
	poison.Wait(p.pc, func() bool {
		task, ok = p.take(pid)
		return ok || p.outstanding.Load() == 0
	})
	return task, ok
}

// take pops pid's newest task or, when its own stack is empty, another
// stack's oldest.
func (p *Pool) take(pid int) (any, bool) {
	s := p.own(pid)
	s.mu.Lock()
	t, ok := s.pop()
	s.mu.Unlock()
	if ok || len(p.shards) == 1 {
		return t, ok
	}
	faultinject.Fire(faultinject.EngineSteal, pid, p.pc)
	for i := 1; i < len(p.shards); i++ {
		v := &p.shards[(pid+i)%len(p.shards)]
		v.mu.Lock()
		t, ok = v.popOldest()
		v.mu.Unlock()
		if ok {
			return t, true
		}
	}
	return nil, false
}

// push appends t as the newest task.  A full stack whose taken prefix is
// at least as long as its queued tasks slides them down instead of
// growing, so the copy is paid for by the slots it frees and the backing
// array stays within a small factor of the largest backlog.
func (s *shard) push(t any) {
	if len(s.tasks) == cap(s.tasks) && 2*s.head >= len(s.tasks) {
		n := copy(s.tasks, s.tasks[s.head:])
		clear(s.tasks[n:])
		s.tasks, s.head = s.tasks[:n], 0
	}
	s.tasks = append(s.tasks, t)
}

// pop removes the newest task.
func (s *shard) pop() (any, bool) {
	n := len(s.tasks) - 1
	if n < s.head {
		return nil, false
	}
	t := s.tasks[n]
	s.tasks[n] = nil
	s.tasks = s.tasks[:n]
	if n == s.head {
		s.tasks, s.head = s.tasks[:0], 0
	}
	return t, true
}

// popOldest removes the oldest task.
func (s *shard) popOldest() (any, bool) {
	if s.head == len(s.tasks) {
		return nil, false
	}
	t := s.tasks[s.head]
	s.tasks[s.head] = nil
	s.head++
	if s.head == len(s.tasks) {
		s.tasks, s.head = s.tasks[:0], 0
	}
	return t, true
}
