package engine

import (
	"fmt"
	"runtime"
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
type Pool interface {
	// Next returns the next task for process pid; ok is false when the
	// whole pool has drained.
	Next(pid int) (task any, ok bool)
	// Put adds a task on behalf of process pid.  It must be called by
	// the goroutine that is pid — tasks land on pid's own deque.
	Put(pid int, task any)
	// Done records that a task returned by Next finished executing.
	Done(pid int)
	// Close retires the pool: it cancels the pool's poison
	// subscription, so a pool that outlives its construct does not pin
	// the cell.  A closed pool must not be used again.
	Close()
}

// PoolKind selects a Pool implementation; each constant says which rule
// of README's "Which variants exist" keeps it.
type PoolKind int

const (
	// StealingPool distributes tasks over per-process Chase-Lev deques:
	// lock-free local put/get, steal-half on miss.  Kept by rule (b): it
	// is the default every tier runs.
	StealingPool PoolKind = iota
	// MonitorPool is the historical baseline: one central queue behind a
	// mutex and condition variable, the [LO83] askfor monitor discipline
	// the paper cites.  Kept by rule (a).
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

// PoolKinds lists the pool implementations in presentation order.
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
// parked waiting for tasks unwinds with poison.Abort when the force is
// poisoned (a peer died mid-task, so the pool can never drain).  Call
// Close when the construct retires to release the poison subscription.
func NewPool(kind PoolKind, np int, seed []any, cell *poison.Cell) Pool {
	if np <= 0 {
		panic(fmt.Sprintf("engine: np = %d, need np >= 1", np))
	}
	switch kind {
	case StealingPool:
		p := &stealingPool{
			np:     np,
			deques: make([]*Deque[any], np),
			hands:  make([]handSlot, np),
			free:   make([]freeList, np),
			pc:     cell,
		}
		p.cond = sync.NewCond(&p.mu)
		for i := range p.deques {
			p.deques[i] = NewDeque[any](16)
		}
		for i, t := range seed {
			p.deques[i%np].Push(t)
		}
		p.outstanding.Store(int64(len(seed)))
		p.unsub = poison.SubscribeBroadcast(cell, &p.mu, p.cond)
		return p
	case MonitorPool:
		p := &monitorPool{pc: cell}
		p.cond = sync.NewCond(&p.mu)
		p.queue = append(p.queue, seed...)
		p.outstanding = len(p.queue)
		p.unsub = poison.SubscribeBroadcast(cell, &p.mu, p.cond)
		return p
	default:
		panic(fmt.Sprintf("engine: unknown pool kind %d", int(kind)))
	}
}

// stealingPool distributes tasks over per-process deques.  Termination
// uses an outstanding counter (queued + executing tasks); idle processes
// spin briefly, then park on a condition variable that Put and the final
// Done poke.
//
// Each process additionally keeps one "hand" slot (the Go scheduler's
// runnext idea): a freshly put task parks there, displacing the previous
// occupant onto the shared deque.  The putter almost always consumes its
// own newest task next (depth-first expansion), so the hand turns that
// round trip into one atomic swap — and because the hand is an atomic
// box pointer, thieves can raid it once every deque is dry, so a task is
// never withheld from the force while its putter blocks inside a body.
//
// Tasks travel in boxes (*any) that each worker recycles through a
// private free list, so steady-state Put/Next traffic allocates nothing:
// a box moves hand → deque → claimant and returns to the claimant's free
// list for its next Put.
type stealingPool struct {
	np          int
	deques      []*Deque[any]
	hands       []handSlot
	free        []freeList
	outstanding atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32 // processes parked (or committing to park); mutated under mu

	pc    *poison.Cell
	unsub func()
}

// Close cancels the pool's poison subscription.
func (p *stealingPool) Close() {
	if p.unsub != nil {
		p.unsub()
		p.unsub = nil
	}
}

// handSlot holds the owner's newest task as an atomic box pointer;
// padded so neighbouring slots do not false-share a cache line.
type handSlot struct {
	p atomic.Pointer[any]
	_ [56]byte
}

// freeList is a worker-private cache of task boxes.
type freeList struct {
	boxes []*any
	_     [40]byte
}

// box wraps a task, reusing a cached box when the worker has one.
func (p *stealingPool) box(pid int, task any) *any {
	fl := &p.free[pid]
	if n := len(fl.boxes); n > 0 {
		b := fl.boxes[n-1]
		fl.boxes = fl.boxes[:n-1]
		*b = task
		return b
	}
	b := new(any)
	*b = task
	return b
}

// unbox extracts a claimed box's task and caches the box for reuse by
// this worker.  Safe because a box has exactly one claimant: deque
// claims go through the top CAS, hand claims through Swap.
func (p *stealingPool) unbox(pid int, b *any) any {
	t := *b
	*b = nil // do not pin the task value while the box idles in the cache
	fl := &p.free[pid]
	if len(fl.boxes) < 64 {
		fl.boxes = append(fl.boxes, b)
	}
	return t
}

func (p *stealingPool) Put(pid int, task any) {
	p.outstanding.Add(1)
	b := p.box(pid, task)
	if old := p.hands[pid].p.Swap(b); old != nil {
		p.deques[pid].PushRef(old)
	}
	// The swap (seq-cst RMW) precedes this load; a parker increments
	// sleepers (seq-cst) before re-checking hands and deques, so one
	// side always observes the other — the classic Dekker handshake.
	// One task wakes one worker: a woken worker that loses the ensuing
	// steal race re-parks, and the drain broadcast in Done catches
	// stragglers.
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

func (p *stealingPool) Done(pid int) {
	if p.outstanding.Add(-1) == 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

func (p *stealingPool) Next(pid int) (any, bool) {
	own := p.deques[pid]
	if b := p.hands[pid].p.Swap(nil); b != nil {
		return p.unbox(pid, b), true
	}
	for spin := 0; ; spin++ {
		p.pc.Check()
		if b, ok := own.PopRef(); ok {
			return p.unbox(pid, b), true
		}
		faultinject.Fire(faultinject.EngineSteal, pid, p.pc)
		for i := 1; i < p.np; i++ {
			if b, ok := p.stealHalf(own, p.deques[(pid+i)%p.np]); ok {
				return p.unbox(pid, b), true
			}
		}
		if p.outstanding.Load() == 0 {
			return nil, false
		}
		if spin < 2 {
			runtime.Gosched()
			continue
		}
		// Last resort before parking: raid the hand slots.  Raids stay
		// off the steal sweep to preserve the owners' locality; they
		// only matter when every deque is dry — either momentarily, or
		// because a putter is blocked inside its body with the
		// successor task still in its hand.
		faultinject.Fire(faultinject.EngineHand, pid, p.pc)
		for i := 1; i < p.np; i++ {
			if b := p.hands[(pid+i)%p.np].p.Swap(nil); b != nil {
				return p.unbox(pid, b), true
			}
		}
		// Park until a Put lands, the pool drains, the force is
		// poisoned, or a steal race we lost leaves visible work to
		// re-contest.  A poison wake falls through to the loop head,
		// whose Check unwinds this process.
		faultinject.Fire(faultinject.EnginePark, pid, p.pc)
		p.mu.Lock()
		p.sleepers.Add(1)
		for !p.workVisible() && p.outstanding.Load() > 0 && !p.pc.Poisoned() {
			p.cond.Wait()
		}
		p.sleepers.Add(-1)
		p.mu.Unlock()
	}
}

// stealHalf takes one task from the victim and migrates up to half of the
// victim's remaining backlog onto the thief's own deque, so a process that
// ran dry refills in one raid instead of returning per task.  Boxes move
// whole; migration allocates nothing.
func (p *stealingPool) stealHalf(own, victim *Deque[any]) (*any, bool) {
	b, ok := victim.StealRef()
	if !ok {
		return nil, false
	}
	for n := victim.Size() / 2; n > 0; n-- {
		extra, ok := victim.StealRef()
		if !ok {
			break
		}
		own.PushRef(extra)
	}
	return b, true
}

func (p *stealingPool) workVisible() bool {
	for _, d := range p.deques {
		if d.Size() > 0 {
			return true
		}
	}
	for i := range p.hands {
		if p.hands[i].p.Load() != nil {
			return true
		}
	}
	return false
}

// monitorPool is the central-queue baseline, semantically identical to the
// pre-engine askforState monitor: one mutex, one condition variable, LIFO
// dispatch.
type monitorPool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []any
	outstanding int // queued + currently executing tasks

	pc    *poison.Cell
	unsub func()
}

// Close cancels the pool's poison subscription.
func (p *monitorPool) Close() {
	if p.unsub != nil {
		p.unsub()
		p.unsub = nil
	}
}

func (p *monitorPool) Put(pid int, task any) {
	p.mu.Lock()
	p.queue = append(p.queue, task)
	p.outstanding++
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *monitorPool) Done(pid int) {
	p.mu.Lock()
	p.outstanding--
	done := p.outstanding == 0
	p.mu.Unlock()
	if done {
		p.cond.Broadcast()
	}
}

func (p *monitorPool) Next(pid int) (any, bool) {
	faultinject.Fire(faultinject.EnginePark, pid, p.pc)
	p.mu.Lock()
	for len(p.queue) == 0 && p.outstanding > 0 && !p.pc.Poisoned() {
		p.cond.Wait()
	}
	if p.pc.Poisoned() {
		p.mu.Unlock()
		p.pc.Check()
	}
	if p.outstanding == 0 {
		p.mu.Unlock()
		return nil, false
	}
	t := p.queue[len(p.queue)-1]
	p.queue = p.queue[:len(p.queue)-1]
	p.mu.Unlock()
	return t, true
}
