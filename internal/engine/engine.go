// Package engine is the work-distribution substrate of the Force runtime:
// a persistent force of worker goroutines and the Askfor task pool.
//
// The paper's execution model creates the force once — "the number of
// processes is fixed only when the force is created" — and then reuses it
// for the whole program.  Engine realizes that literally: New starts NP
// long-lived workers (each paying the machine's process-creation cost
// exactly once), and every Run dispatches a program to the same workers,
// so repeated Runs cost a handoff, not a re-spawn.  The package sits at
// the bottom of the runtime stack; internal/core builds Force/Proc on the
// workers and the pool.
package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/poison"
)

// Engine is a persistent force of NP worker goroutines.  Workers are
// started by New and survive across Run invocations until Close (or until
// the Engine is garbage collected, which closes it via a finalizer).
// Run must not be called concurrently with itself or with Close.
type Engine struct {
	np int
	sh *workerShared
	// jb is the engine's reusable job descriptor: Run is never
	// concurrent with itself (documented above), so every dispatch can
	// reuse one job instead of allocating — part of the runtime's
	// zero-allocation steady state.  Cleared after each dispatch so a
	// finished Run's body closure is not pinned until the next one.
	jb job
}

// workerShared is the state workers reference.  It deliberately does not
// point back at the Engine, so an abandoned Engine becomes unreachable,
// its finalizer runs, and the workers exit instead of leaking.
type workerShared struct {
	jobs []chan *job
	quit chan struct{}
	stop sync.Once
}

// job is one Run dispatched to every worker.
type job struct {
	body   func(pid int)
	cell   *poison.Cell // nil on plain Run
	wg     sync.WaitGroup
	mu     sync.Mutex
	panics []any
}

// run executes the job body in one worker.  Its deferred recover is the
// engine's fault boundary: a poison.Abort means this process was merely
// unwinding after a *peer's* failure poisoned the force, so it is
// discarded (the original failure is in the cell); any other panic IS
// the failure — it is recorded in the cell, which poisons the force and
// wakes every blocked peer.  Either way the worker survives to serve
// the next Run.
func (j *job) run(pid int) {
	defer j.wg.Done()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if j.cell != nil {
			if _, ok := r.(poison.Abort); ok {
				// A peer failed first; this process only unwound.
				return
			}
			// First failure wins; later ones lose the race and are
			// dropped, matching the old first-panic reporting.
			j.cell.Poison(r)
			return
		}
		// Plain Run has no cell: collect every panic (Abort included —
		// swallowing it here would turn an externally poisoned body
		// into a silent success).
		j.mu.Lock()
		j.panics = append(j.panics, r)
		j.mu.Unlock()
	}()
	j.body(pid)
}

// Option configures an Engine.
type Option func(*config)

type config struct {
	start func(pid int)
}

// WithWorkerStart installs a hook each worker runs once at startup,
// before New returns — the place the machine profile's process-creation
// cost is paid.
func WithWorkerStart(fn func(pid int)) Option {
	return func(c *config) { c.start = fn }
}

// New starts np persistent workers and returns when all are running
// (start hooks, if any, have completed).
func New(np int, opts ...Option) *Engine {
	if np <= 0 {
		panic(fmt.Sprintf("engine: np = %d, need np >= 1", np))
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	sh := &workerShared{jobs: make([]chan *job, np), quit: make(chan struct{})}
	var ready sync.WaitGroup
	for id := 0; id < np; id++ {
		sh.jobs[id] = make(chan *job, 1)
		ready.Add(1)
		go worker(id, sh.jobs[id], sh.quit, cfg.start, &ready)
	}
	ready.Wait()
	e := &Engine{np: np, sh: sh}
	runtime.SetFinalizer(e, (*Engine).Close)
	return e
}

func worker(id int, jobs <-chan *job, quit <-chan struct{}, start func(pid int), ready *sync.WaitGroup) {
	if start != nil {
		start(id)
		start = nil // drop the hook so it cannot pin its captures for the worker's lifetime
	}
	ready.Done()
	for {
		select {
		case j := <-jobs:
			j.run(id)
		case <-quit:
			return
		}
	}
}

// NP returns the number of workers.
func (e *Engine) NP() int { return e.np }

// Run executes body in every worker, as process ids 0..NP-1, and returns
// when all have finished.  If any worker's body panics, Run re-panics
// with the first recorded panic value after all workers have stopped —
// the same whole-force failure semantics the spawn-per-run driver had.
func (e *Engine) Run(body func(pid int)) {
	e.jb.body, e.jb.cell = body, nil
	e.dispatch(&e.jb)
}

// RunCell is Run under the fault-containment protocol: the first
// worker panic poisons the cell (waking peers blocked in poison-aware
// primitives) instead of merely being collected, and poison.Abort
// unwinds from those peers are recovered and discarded at the job
// boundary.  RunCell itself returns normally; the caller owns the cell
// and decides how to surface cell.Value().
func (e *Engine) RunCell(cell *poison.Cell, body func(pid int)) {
	e.jb.body, e.jb.cell = body, cell
	e.dispatch(&e.jb)
}

func (e *Engine) dispatch(j *job) {
	select {
	case <-e.sh.quit:
		panic("engine: Run on a closed Engine")
	default:
	}
	j.wg.Add(e.np)
	for _, ch := range e.sh.jobs {
		ch <- j
	}
	j.wg.Wait()
	var first any
	if len(j.panics) > 0 {
		first = j.panics[0]
	}
	j.body, j.cell = nil, nil
	clear(j.panics)
	j.panics = j.panics[:0]
	if first != nil {
		panic(first)
	}
}

// Close stops the workers.  Idempotent; safe on an Engine that is also
// subject to finalization.
func (e *Engine) Close() {
	e.sh.stop.Do(func() { close(e.sh.quit) })
}
