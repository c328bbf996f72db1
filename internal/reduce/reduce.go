// Package reduce implements global reductions — the Force's collective
// combine-and-broadcast operation — as a first-class runtime layer with
// selectable strategies.
//
// The paper's programs express a global reduction with the only tools the
// 1989 language had: a shared accumulator updated inside a named critical
// section, closed by a barrier.  That serializes the hottest collective
// operation in every SPMD kernel.  Modern runtimes (Cilk reducers,
// Charm++ contribute-style reductions) make the reduction itself the
// primitive; this package provides that primitive over the repository's
// own lock and barrier substrate, keeping the paper's idiom as the
// Critical baseline strategy for comparison.
//
// An Episode is the shared state of ONE dynamic reduction instance for a
// force of np processes: every process contributes exactly once through
// Do and receives the combined value, and no process returns before the
// combination is complete — a reduction is also a full synchronization
// point, like the implicit barrier closing a DOALL.  Episodes are
// one-shot: the runtime materializes a fresh Episode per construct
// execution (internal/core's construct-entry table), so no sense-reversal
// machinery is needed.
//
// The combining function must be associative and commutative; the order
// in which contributions meet is strategy-dependent.  PrivateSlots is the
// deterministic strategy: it always folds the per-process slots in pid
// order, so even floating-point reductions reproduce bit-identically for
// a fixed np.
package reduce

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/barrier"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/poison"
)

// Kind names a reduction strategy.  The zero value is PrivateSlots, the
// default the runtime uses.  Each constant says which rule of README's
// "Which variants exist" keeps it.
type Kind int

const (
	// PrivateSlots gives every process its own padded accumulator slot;
	// the last process to arrive folds the slots in pid order (the
	// "combined in a barrier section" shape) and publishes the result.
	// Contention-free contribution, deterministic combination order.
	// Kept by rule (b): it is the default every tier runs.
	PrivateSlots Kind = iota
	// Critical is the paper's baseline, reproduced whole: contributions
	// fold into one shared accumulator under a machine lock, and the
	// construct closes with the paper's own two-lock barrier (section
	// included) — the critical-section-plus-barrier idiom every 1989
	// Force program hand-rolled.  Kept by rule (a): the paper describes
	// it.
	Critical
)

var kindNames = map[Kind]string{
	Critical:     "critical",
	PrivateSlots: "slots",
}

// kindGoNames are the Go identifiers of the kinds, for code generators
// emitting reduce.<name> against this package.
var kindGoNames = map[Kind]string{
	Critical:     "Critical",
	PrivateSlots: "PrivateSlots",
}

// String returns the strategy's short name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("reduce.Kind(%d)", int(k))
}

// GoName returns the kind's Go identifier within this package, the form
// internal/codegen emits into generated programs.
func (k Kind) GoName() string {
	if s, ok := kindGoNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a short name into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("reduce: unknown kind %q (kinds: %v)", s, Kinds())
}

// Kinds lists the strategies in presentation order (baseline first).
func Kinds() []Kind { return []Kind{Critical, PrivateSlots} }

// Op names the combining operator of a global reduction.  The named
// operators give trace events a stable label; Custom covers
// user-supplied combiners.
type Op int

// The global operators of the Force dialect (GSUM, GPROD, GMAX, GMIN,
// GAND, GOR) plus Custom for arbitrary combine functions.
const (
	Sum Op = iota
	Prod
	Max
	Min
	And
	Or
	Custom
)

var opNames = map[Op]string{
	Sum: "sum", Prod: "prod", Max: "max", Min: "min", And: "and", Or: "or", Custom: "custom",
}

// String returns the operator's short name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("reduce.Op(%d)", int(o))
}

// Episode is the shared state of one dynamic reduction instance for a
// fixed force.  Every participating process calls Do exactly once with
// its process id and contribution; Do returns the global combination to
// every caller, and no caller returns before all have contributed.  An
// Episode must not be reused.
type Episode[T any] interface {
	Do(pid int, x T) T
}

// Config carries the machine-dependent hooks an Episode may need; it
// is generic in the element type because the completion hook receives
// the result.
type Config[T any] struct {
	// Lock supplies the accumulator lock for the Critical strategy —
	// the machine profile's lock mechanism, exactly as the paper's
	// critical section macro uses it.  Nil defaults to system locks.
	Lock func() lock.Lock
	// OnComplete, when non-nil, runs exactly once per episode, in the
	// process that completes the combination, after the result is final
	// and before any process is released — the barrier-section position.
	// The runtime uses it to retire the construct entry and to execute
	// single-process reduction sections.
	OnComplete func(result T)
	// Poison, when non-nil, is the force's cancellation cell: a process
	// waiting out a combination that can never complete (a contributor
	// died) unwinds with poison.Abort instead of waiting forever.
	Poison *poison.Cell
}

// New builds the shared state of one reduction episode for np processes.
// combine must be associative and commutative.
func New[T any](k Kind, np int, combine func(T, T) T, cfg Config[T]) Episode[T] {
	if np <= 0 {
		panic(fmt.Sprintf("reduce: np = %d, need np >= 1", np))
	}
	switch k {
	case Critical:
		factory := cfg.Lock
		if factory == nil {
			factory = lock.Factory(lock.System)
		}
		e := &criticalEpisode[T]{
			np: np, combine: combine, lk: factory(),
			bar: barrier.NewTwoLock(np, factory), onComplete: cfg.OnComplete, pc: cfg.Poison,
		}
		e.bar.SetPoison(cfg.Poison)
		return e
	default:
		return newSlots[T](np, combine, cfg.OnComplete, cfg.Poison)
	}
}

// release publishes the episode result to the waiting processes.  The
// completing process stores the result, runs the section hook, and
// releases everyone; the atomic store of done orders the result write
// before every reader.  Waiting is spin-then-park: the shared wait
// policy's spin phases (poison.Spin) catch the common fast path under
// real parallelism, after which the waiter parks on the release
// channel — on an oversubscribed machine (more processes than CPUs,
// the 1989 normality and the CI box's too) parked waiters leave the
// scheduler to the processes that still owe contributions instead of
// cycling through the run queue.  A
// parked waiter additionally selects on the poison cell's wake channel,
// so a reduction whose missing contributor died unwinds with
// poison.Abort instead of parking forever.
type release[T any] struct {
	done   atomic.Uint32
	ch     chan struct{}
	pc     *poison.Cell
	result T
}

func newRelease[T any](pc *poison.Cell) release[T] {
	return release[T]{ch: make(chan struct{}), pc: pc}
}

func (r *release[T]) publish(v T, onComplete func(T)) T {
	r.result = v
	if onComplete != nil {
		onComplete(v)
	}
	r.done.Store(1)
	close(r.ch)
	return v
}

func (r *release[T]) await() T {
	faultinject.Fire(faultinject.ReduceRelease, -1, r.pc)
	if poison.Spin(r.pc, func() bool { return r.done.Load() == 1 }) {
		return r.result
	}
	select {
	case <-r.ch:
	case <-r.pc.Done(): // nil channel (never ready) when no poison is wired
		if r.done.Load() != 1 {
			r.pc.Check()
		}
	}
	return r.result
}

// criticalEpisode is the paper's idiom reproduced whole: fold the
// contribution into one shared accumulator inside a critical section
// (the machine's lock), then close the construct with the paper's
// two-lock barrier — the completion hook runs as that barrier's section.
// This is what every 1989 Force program spelled out by hand, and it
// carries the idiom's full cost: serialized folds plus the lock-handoff
// barrier.  PrivateSlots replaces both halves.
type criticalEpisode[T any] struct {
	np         int
	combine    func(T, T) T
	lk         lock.Lock
	bar        *barrier.TwoLockBarrier
	acc        T
	seeded     bool
	onComplete func(T)
	pc         *poison.Cell
}

func (e *criticalEpisode[T]) Do(pid int, x T) T {
	lock.Acquire(e.lk, e.pc)
	func() {
		// The combine is user code under the Custom operator: release
		// the accumulator lock even when it panics, so peers queued on
		// it drain instead of wedging on a lock no one will open.
		defer e.lk.Unlock()
		if e.seeded {
			e.acc = e.combine(e.acc, x)
		} else {
			e.acc, e.seeded = x, true
		}
	}()
	var section func()
	if e.onComplete != nil {
		section = func() { e.onComplete(e.acc) }
	}
	// The critical strategy's release position is its closing barrier.
	faultinject.Fire(faultinject.ReduceRelease, pid, e.pc)
	e.bar.Sync(pid, section)
	// All folds happened before the last arrival opened the barrier
	// drain, so the accumulator is final and safe to read.
	return e.acc
}

// paddedSlot keeps one process's accumulator on its own cache line so
// concurrent contributions do not false-share.
type paddedSlot[T any] struct {
	v T
	_ [64]byte
}

// slotsEpisode: contribution is a plain store into the process's own
// slot; the last arrival folds the slots in pid order (the deterministic
// combination) and publishes.  Slots are cache-line padded only when the
// program can actually run in parallel (GOMAXPROCS > 1): padding exists
// to defeat false sharing between concurrently-writing CPUs, and on a
// single-CPU box it would only dilute the cache.
type slotsEpisode[T any] struct {
	np         int
	combine    func(T, T) T
	slots      []paddedSlot[T] // padded storage (nil when compact)
	compact    []T             // unpadded storage (GOMAXPROCS == 1)
	arrived    atomic.Int64
	rel        release[T]
	onComplete func(T)
}

func newSlots[T any](np int, combine func(T, T) T, onComplete func(T), pc *poison.Cell) *slotsEpisode[T] {
	e := &slotsEpisode[T]{np: np, combine: combine, rel: newRelease[T](pc), onComplete: onComplete}
	if runtime.GOMAXPROCS(0) > 1 {
		e.slots = make([]paddedSlot[T], np)
	} else {
		e.compact = make([]T, np)
	}
	return e
}

func (e *slotsEpisode[T]) put(pid int, x T) {
	if e.slots != nil {
		e.slots[pid].v = x
	} else {
		e.compact[pid] = x
	}
}

func (e *slotsEpisode[T]) at(pid int) T {
	if e.slots != nil {
		return e.slots[pid].v
	}
	return e.compact[pid]
}

func (e *slotsEpisode[T]) Do(pid int, x T) T {
	e.put(pid, x)
	if e.arrived.Add(1) == int64(e.np) {
		acc := e.at(0)
		for i := 1; i < e.np; i++ {
			acc = e.combine(acc, e.at(i))
		}
		return e.rel.publish(acc, e.onComplete)
	}
	return e.rel.await()
}
