// Package core implements the Force runtime: the paper's global-parallelism
// execution model in which a fixed force of NP processes executes one SPMD
// program, with work distributed by constructs rather than assigned to
// named processes (paper §3).
//
// The package provides every Force language concept:
//
//   - program structure: New/Run (the generated Force driver: create the
//     force, run the program in every process, Join at the end) and
//     parallel subroutines (any Go function taking a *Proc);
//   - variable classes: shared variables are whatever the program shares
//     through closures (the Go analogue of Force shared declarations),
//     private variables are locals of the process body, and asynchronous
//     variables come from the machine profile via NewAsync;
//   - work distribution: prescheduled and selfscheduled DOALL loops over
//     Fortran-style ranges, singly and doubly nested; prescheduled and
//     selfscheduled Pcase with optional per-block conditions; Askfor work
//     pools with run-time work generation; Resolve (the paper's "yet
//     unimplemented concept", built here as scoped sub-forces);
//   - synchronization: barriers with single-process barrier sections,
//     named critical sections, and produce/consume on async variables;
//   - global reductions: Gsum/Gprod/Gmax/Gmin/Gand/Gor and the generic
//     Reduce/ReduceSection, all uses of the force's one closing
//     collective, executed by one of two strategies (Variants.Reduce):
//     per-process slots, or the hand-rolled critical-section reduction
//     of the paper's programs.
//
// Every construct is generic in the paper's sense — no process identifiers
// appear in synchronization operations — and programs are written to be
// independent of the number of processes, which is fixed only when the
// force is created.
//
// # Architecture
//
// core sits in the middle of the runtime stack:
//
//	forcelang  →  interp / codegen      (front end: interpret or compile)
//	                 │
//	                 ▼
//	               core                 (Force/Proc: the paper's constructs)
//	                 │
//	      ┌──────────┼──────────┬────────────┐
//	      ▼          ▼          ▼            ▼
//	   engine      sched      reduce     barrier / lock / machine
//	 (persistent (loop dis-  (operators, (synchronization and the
//	  workers,    ciplines)   the one     machine-dependent layer)
//	  Askfor                  rendezvous)
//	  pools)
//
// A Force owns a persistent engine.Engine: NP worker goroutines started
// at New (each paying the machine's creation cost exactly once) that
// survive across Run invocations, the paper's create-force-then-reuse
// driver taken literally.  Askfor draws from an engine.Pool (one locked
// task stack per process by default, the [LO83] central monitor's one
// stack as the paper's baseline); selfscheduled Pcase and DOALL loops
// claim from the force's reusable loop slots (sched.Loop).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/machine"
	"repro/internal/poison"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Force is a force of NP processes together with the shared parallel
// environment the preprocessor would have generated: the global barrier,
// the named lock set, the loop slots and the per-construct table.
type Force struct {
	np       int
	profile  machine.Profile
	variants Variants // barrier, reduction, selfscheduling, Askfor pool
	bar      barrier.Barrier
	locks    *lock.Set
	tr       *trace.Recorder // nil unless WithTrace was given

	// newLock is the machine's define_lock (profile.LockFactory), taken
	// once: the barrier, the named lock set and the loop slots share it.
	newLock func() lock.Lock

	eng *engine.Engine // persistent workers; nil on scoped sub-forces

	pc    *poison.Cell // fault-containment cell; shared with sub-forces
	sites []procSite   // per-pid blocked-construct state for Blocked

	// closers are the force's closing collective (Proc.collective): every
	// reduction and every close of a fused region meets at one of the
	// two.  They alternate per process: a process can only reach its
	// (k+2)-th collective after every process has left its k-th, the
	// sense-reversal invariant that makes a pair safe to reuse forever.
	// acc is the accumulator of the reduce.Critical strategy, folded into
	// under accLock (nil under reduce.PrivateSlots).  Rebuilt by
	// recoverAborted like the barrier.
	closers   [2]closer
	accLock   lock.Lock
	acc       word
	accSeeded bool

	// procs and runBody are the preallocated per-Run dispatch state:
	// one Proc per process reset (not reallocated) each Run, and one
	// stable body closure reading curProgram — so a steady-state Run
	// performs zero heap allocations.
	procs      []Proc
	runBody    func(id int)
	curProgram func(p *Proc)

	// loops are the reusable shared states of selfscheduled loops
	// (loopSlot, fused.go); entries holds what is still materialized per
	// construct instance: Askfor pools and Resolve plans.
	loops   [loopSlots]loopSlot
	entries sync.Map // construct seq (uint64) -> *constructEntry
}

// procSite records where one process currently blocks: the construct
// name (set by the core construct methods) and an optional front-end
// note ("Barrier, line 12", set by interpreters via Proc.Note).  Read
// by Force.Blocked.  A Proc addresses its slot through a direct
// pointer, so sub-force Procs (Resolve components) report into the
// parent process's slot and remain visible on the top-level force.
// Sized to a whole cache line so neighbouring processes' site stores do
// not false-share.
type procSite struct {
	construct atomic.Pointer[string]
	note      atomic.Pointer[string]
	_         [48]byte
}

// Stats counts construct executions; all fields are updated atomically and
// may be read at any time.  Each process counts into a Stats of its own
// (Proc.stats): six force-wide counters would be six cache lines every
// process writes at every construct.
type Stats struct {
	Barriers    atomic.Int64
	Loops       atomic.Int64
	Criticals   atomic.Int64
	PcaseBlocks atomic.Int64
	AskforTasks atomic.Int64
	Reductions  atomic.Int64
}

// Option configures a Force.
type Option func(*Force)

// WithMachine selects the machine profile supplying locks, async-variable
// realization and creation cost.  Default: machine.Native.
func WithMachine(p machine.Profile) Option {
	return func(f *Force) { f.profile = p }
}

// WithTrace attaches an execution-trace recorder; every construct edge
// (barrier enter/leave, section and critical boundaries, granted loop
// spans, Pcase blocks, Askfor tasks) is recorded for post-run validation.
func WithTrace(r *trace.Recorder) Option {
	return func(f *Force) { f.tr = r }
}

// Trace returns the attached recorder (nil when tracing is off).
func (f *Force) Trace() *trace.Recorder { return f.tr }

// New creates a force of np processes: NP persistent worker goroutines
// are started immediately, each paying the machine's creation cost once
// (§4.1.1) — the paper's create-the-force step.  The force is reusable:
// Run may be called repeatedly (sequentially) with different programs,
// and repeated Runs cost a handoff to the existing workers, not a
// re-creation.  Close releases the workers; an abandoned Force is also
// cleaned up by the garbage collector.
func New(np int, opts ...Option) *Force {
	if np <= 0 {
		panic(fmt.Sprintf("core: np = %d, need np >= 1", np))
	}
	f := &Force{np: np, profile: machine.Native}
	for _, o := range opts {
		o(f)
	}
	if f.variants.Selfsched == 0 {
		f.variants.Selfsched = sched.SelfLock
	}
	f.pc = poison.NewCell()
	f.pc.SetProcs(np)
	f.sites = make([]procSite, np)
	f.newLock = f.profile.LockFactory()
	f.initConstructs()
	// Capture the profile by value: the start hook must not reference f,
	// or the workers would keep an abandoned force alive forever.
	prof := f.profile
	f.eng = engine.New(np, engine.WithWorkerStart(func(int) { prof.PayCreationCost() }))
	f.procs = make([]Proc, np)
	for id := range f.procs {
		p := &f.procs[id]
		p.id, p.f, p.site = id, f, &f.sites[id]
	}
	f.runBody = func(id int) {
		f.sites[id].construct.Store(nil)
		f.sites[id].note.Store(nil)
		p := &f.procs[id]
		p.seq, p.fuse = 0, 0 // the cursors restart with the Run; the counters run on
		f.curProgram(p)
		// Reached only on normal return: a panicking process keeps its
		// last blocked site for post-mortem inspection.  The sticky
		// note clears too — a finished process has no "current" line.
		f.sites[id].note.Store(nil)
		f.sites[id].construct.Store(&siteExited)
	}
	return f
}

// initConstructs builds the per-run construct state of a force or
// sub-force: the barrier, the named locks, the closing collective and the
// loop slots.  recoverAborted rebuilds it the same way — an aborted Run
// leaves the barrier's relay mid-episode, named locks held by unwound
// processes and joins holding contributions that never folded.
func (f *Force) initConstructs() {
	f.bar = barrier.New(f.variants.Barrier, f.np, f.newLock)
	barrier.SetPoison(f.bar, f.pc)
	f.locks = lock.NewSet(f.newLock)
	f.initClosers()
	f.resetLoops()
}

// Close stops the force's persistent workers.  Idempotent; the force must
// not be Run again afterwards.
func (f *Force) Close() {
	if f.eng != nil {
		f.eng.Close()
	}
}

// NP returns the number of processes in the force.
func (f *Force) NP() int { return f.np }

// NewAsync creates an asynchronous (full/empty) variable realized with the
// force's machine profile: hardware-style on the HEP, the two-lock scheme
// elsewhere.  (A free function because Go methods cannot introduce type
// parameters.)  The variable observes the force's poison cell: a
// Produce/Consume blocked when the force aborts unwinds instead of
// waiting for a transfer that can never happen.
func NewAsync[T any](f *Force) asyncvar.V[T] {
	v := machine.NewAsync[T](f.profile)
	asyncvar.SetPoison(v, f.pc)
	return v
}

// NewAsyncArray creates an array of n asynchronous cells realized with the
// force's machine profile — the HEP's per-cell full/empty idiom.  On
// two-lock machines each cell costs a lock pair, the paper's "locks may
// be scarce resources" caveat.  Like NewAsync, the cells observe the
// force's poison cell.
func NewAsyncArray[T any](f *Force, n int) *asyncvar.Array[T] {
	a := asyncvar.NewArray[T](f.profile.Async, f.profile.LockFactory(), n)
	a.SetPoison(f.pc)
	return a
}

// Fault returns the force's fault-containment cell: poisoning it wakes
// every process blocked in a force construct, and the in-flight Run
// panics with the poison value.  A caller stopping a run from outside
// cancels the context RunContext takes instead.
func (f *Force) Fault() *poison.Cell { return f.pc }

// Blocked reports, for each process, where it currently blocks: the
// core construct name plus the front end's location note when one was
// recorded.  Meaningful while a Run is stalled (forcerun -timeout
// prints it at the deadline); a process not inside a blocking construct
// reports what it last recorded.
func (f *Force) Blocked() []string {
	out := make([]string, f.np)
	for i := range out {
		c := f.sites[i].construct.Load()
		n := f.sites[i].note.Load()
		switch {
		case c != nil && n != nil:
			out[i] = *c + " (" + *n + ")"
		case c != nil:
			out[i] = *c
		case n != nil:
			out[i] = "running; last synchronization site: " + *n
		default:
			out[i] = "running (no synchronization site recorded)"
		}
	}
	return out
}

// Construct-site labels for Blocked; static so enter/leave stores never
// allocate.
var (
	siteBarrier  = "Barrier"
	siteLoop     = "DOALL"
	sitePcase    = "Pcase"
	siteAskfor   = "Askfor"
	siteReduce   = "global reduction"
	siteResolve  = "Resolve"
	siteCritical = "Critical"
	siteExited   = "finished the program"
)

// AsyncSiteLabel is the construct label front ends pass to WithSite
// around the wait of an asynchronous-variable statement, which blocks
// outside any core construct method.
var AsyncSiteLabel = "async variable"

// WithSite runs op with label recorded as the process's blocked site
// (shown by Blocked), for a wait outside the core constructs — a front
// end calls it only once it knows op will wait — and then restores the
// enclosing construct's site (a DOALL, an Askfor).  label must point to a
// long-lived string.  The label is retained when op unwinds, for
// post-mortem reports.
func (p *Proc) WithSite(label *string, op func()) {
	enclosing := p.site.construct.Load()
	p.enterSite(label)
	op()
	p.enterSite(enclosing)
}

// enterSite records s as the process's construct site.  Like Note it
// stores only a change: each member of a fused region enters the DOALL
// site the one before it left in place.
func (p *Proc) enterSite(s *string) {
	if p.site.construct.Load() != s {
		p.site.construct.Store(s)
	}
}

func (p *Proc) leaveSite() { p.enterSite(nil) }

// Note records a front-end location note ("Barrier, line 12") shown by
// Blocked next to the construct name.  Interpreters call it before each
// potentially blocking statement; nil clears.  The note is sticky until
// the next Note, so only a changed one is stored: a loop around one
// statement then pays a load per iteration, not an atomic exchange.
func (p *Proc) Note(s *string) {
	if p.site.note.Load() != s {
		p.site.note.Store(s)
	}
}

// Check unwinds the process (with the runtime's distinguished abort
// panic) when the force has been poisoned.  Every force construct
// checks on entry; long computational stretches between constructs —
// an interpreter's WHILE loop, a long library computation — may call
// it so an externally aborted force does not have to wait them out.
// The cost is one atomic load.
func (p *Proc) Check() { p.f.pc.Check() }

// Machine returns the machine profile the force runs under.
func (f *Force) Machine() machine.Profile { return f.profile }

// Stats returns the construct counters: the processes' own, summed as of
// the call.
func (f *Force) Stats() *Stats {
	sum := new(Stats)
	for i := range f.procs {
		s := &f.procs[i].stats
		sum.Barriers.Add(s.Barriers.Load())
		sum.Loops.Add(s.Loops.Load())
		sum.Criticals.Add(s.Criticals.Load())
		sum.PcaseBlocks.Add(s.PcaseBlocks.Load())
		sum.AskforTasks.Add(s.AskforTasks.Load())
		sum.Reductions.Add(s.Reductions.Load())
	}
	return sum
}

// Run executes program as a Force main program: every process of the
// persistent force runs program with its private *Proc, and Run returns
// when all have — the Join statement of the paper, executed by the
// generated driver.  The creation cost was paid when the force was
// created (§4.1.1: fork models pay more than create-call); Run itself is
// a handoff to the already-running workers.
//
// Failures are contained by the poison protocol: when any process
// panics, the engine records the panic in the force's poison cell,
// which wakes every peer blocked in a force construct (barriers,
// reductions, asynchronous variables, Askfor pools); the peers unwind,
// and after all processes have stopped Run re-panics with the *first*
// failure.  The 1989 machines had no such protocol — an aborted process
// left its peers blocked in the next barrier forever — but a runtime
// meant to run unattended cannot afford that.  After an aborted Run the
// force's per-run construct state (barrier, named locks, construct
// table) is rebuilt, so the persistent force remains reusable: the next
// Run starts clean.  Run must not be invoked concurrently on the same
// force.
//
// Run is the no-deadline entry point: it delegates to RunContext with
// context.Background(), which never cancels, and re-panics any error
// (an external poison of the Fault cell) to keep its panic-on-abort
// signature.
func (f *Force) Run(program func(p *Proc)) {
	if err := f.RunContext(context.Background(), program); err != nil {
		panic(err)
	}
}

// RunContext executes program like Run, under an external cancellation
// context.  When ctx is canceled or its deadline passes, the force is
// poisoned with an *external* cause (poison.CauseExternal): every
// process blocked in a force construct — a barrier, a reduce episode,
// an asynchronous variable, an Askfor pool or engine park, a
// chunked-tier iteration boundary — wakes within one
// park interval and unwinds, the persistent force is rebuilt exactly
// as after an internal abort (the force remains reusable), and
// RunContext returns ctx.Err().  Internal failures keep Run's
// contract: the first failing process's panic value is re-panicked
// after all processes have stopped.
//
// The asymmetry is deliberate: a peer's panic is a program bug the
// caller did not ask for (a panic), while a deadline is an outcome the
// caller explicitly requested (an error return) — the service-shaped
// cancellation contract of context-aware Go APIs.
func (f *Force) RunContext(ctx context.Context, program func(p *Proc)) error {
	if f.eng == nil {
		// Only scoped sub-forces lack workers, and their processes are
		// the parent's workers re-scoped — Resolve hands them Procs
		// directly and never calls Run.
		panic("core: Run on a scoped sub-force")
	}
	// A cell poisoned before the Run starts (through Fault) is a pre-Run
	// abort request: honor it rather than silently erasing it.  An
	// *aborted* Run never leaves leftover poison — it is consumed by
	// recoverAborted below.
	if f.pc.Poisoned() {
		return f.settleAborted()
	}
	// A context dead on arrival never starts the force at all.
	if err := ctx.Err(); err != nil {
		return err
	}

	// The cancellation watcher: one goroutine selecting the context
	// against run completion.  Armed only when the context can actually
	// cancel, so Run's Background() path pays nothing — not even the
	// stop channel or the watcher's WaitGroup (which escapes into the
	// goroutine closure and would otherwise heap-allocate every Run).
	var watcher *sync.WaitGroup
	var stop chan struct{}
	if ctx.Done() != nil {
		stop = make(chan struct{})
		watcher = new(sync.WaitGroup)
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				f.pc.PoisonExternal(ctx.Err())
			case <-stop:
			}
		}()
	}

	f.curProgram = program
	f.resetLoops() // Proc.seq restarts with the Run: no slot may still answer to one
	f.eng.RunCell(f.pc, f.runBody)
	f.curProgram = nil // do not pin the program until the next Run
	if stop != nil {
		close(stop)
		watcher.Wait() // no PoisonExternal can race past this point
	}

	if f.pc.Poisoned() {
		return f.settleAborted()
	}
	return nil
}

// settleAborted consumes the cell's poison after every process has
// stopped: the per-run state is rebuilt for the next Run, an external
// cancellation is returned as an error, and an internal failure is
// re-panicked (Run's contract).
func (f *Force) settleAborted() error {
	v, cause := f.pc.Value(), f.pc.Cause()
	f.recoverAborted()
	if cause == poison.CauseExternal {
		return poison.AsError(v)
	}
	panic(v)
}

// recoverAborted rebuilds the per-run construct state an aborted Run
// leaves in an unspecified condition — the barrier's relay may be
// mid-episode, named locks may be held by unwound processes, and the
// construct table may hold half-used entries — so that the persistent
// force can serve the next Run.  Called after every process has
// stopped.
func (f *Force) recoverAborted() {
	f.pc.Reset()
	f.initConstructs()
	f.releaseEntries()
}

// releaseEntries retires every abandoned construct entry after an
// abort, including those of a Resolve plan's sub-forces, which hold
// construct tables of their own.
func (f *Force) releaseEntries() {
	f.entries.Range(func(k, v any) bool {
		if e, ok := v.(*constructEntry); ok {
			if st, ok := e.state.(*resolvePlan); ok {
				for _, s := range st.sub {
					s.releaseEntries()
				}
			}
		}
		f.entries.Delete(k)
		return true
	})
}

// constructEntry is the shared state of one dynamic construct instance
// (one execution of a DOALL, Pcase or Askfor site).  All processes of the
// force reach the same construct sites in the same order — the SPMD
// discipline the Force assumes — so a per-process sequence number
// identifies the instance, and the first process to arrive materializes
// the shared state.
type constructEntry struct {
	once  sync.Once
	state any
}

func (f *Force) entry(seq uint64, build func() any) any {
	v, _ := f.entries.LoadOrStore(seq, &constructEntry{})
	e := v.(*constructEntry)
	e.once.Do(func() { e.state = build() })
	return e.state
}

func (f *Force) dropEntry(seq uint64) { f.entries.Delete(seq) }

// Proc is one process's private view of the force: its unique process
// identifier, the private construct-sequence cursor and this process's
// share of the construct counters.  A *Proc must be used only by the
// goroutine it was handed to.
//
// The fields the process writes at every construct come first and fill
// one cache line, and the struct is two lines long: the Procs of a force
// are neighbours in one slice, and a process bumping its own cursor must
// not invalidate the line its neighbour's lives on (nor, at 128 bytes,
// have the adjacent-line prefetcher fetch it back).
type Proc struct {
	seq uint64
	// fuse counts the closing collectives this process has been through:
	// the ordinal of the next one, whose parity selects the closer.
	fuse uint64
	// stats counts the constructs this process executed, since the force
	// was created; Force.Stats sums them over the processes.
	stats Stats

	id   int
	f    *Force
	site *procSite // this process's watchdog slot on the TOP-LEVEL force
	// crit is the named lock this process entered last (Critical) and the
	// set it was taken from: written on a change of name, read every entry.
	crit struct {
		set  *lock.Set
		name string
		lk   lock.Lock
	}
}

// ID returns the process identifier, in [0, NP()).
func (p *Proc) ID() int { return p.id }

// NP returns the number of processes in the force.
func (p *Proc) NP() int { return p.f.np }

// Force returns the force this process belongs to.
func (p *Proc) Force() *Force { return p.f }

// Selfsched returns the discipline the force was created with for
// selfscheduled work (Variants.Selfsched): what a generated program hands
// DoAllGranted for a Selfsched DO, and what SelfschedPcase deals blocks by.
func (p *Proc) Selfsched() sched.Kind { return p.f.variants.Selfsched }

// nextSeq advances the private construct cursor.  Constructs executed in
// SPMD order yield identical sequences in every process.
func (p *Proc) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// Barrier suspends the process until the whole force arrives (§3.4).
func (p *Proc) Barrier() { p.BarrierSection(nil) }

// BarrierSection is a barrier with a barrier section: all processes wait,
// exactly one arbitrary process executes section while the others remain
// suspended, and the force proceeds when it completes.
func (p *Proc) BarrierSection(section func()) {
	p.f.pc.Check()
	p.stats.Barriers.Add(1)
	p.barrierSync(&siteBarrier, section)
}

// barrierSync is one episode of the force's barrier executing a Barrier
// statement — its own (BarrierSection), or the exit synchronization of the
// DOALL the statement rides (JoinSection) — or closing a reduction under
// the reduce.Critical strategy, as the paper's programs do; site is what
// the watchdog shows for a process suspended in it.
func (p *Proc) barrierSync(site *string, section func()) {
	section = p.barrierEnter(section)
	p.enterSite(site)
	p.f.bar.Sync(p.id, section)
	p.leaveSite()
	p.barrierLeave()
}

// barrierEnter and barrierLeave bracket the collective that executes a
// Barrier statement — the barrier's own episode, or the closing collective
// of the construct the statement rides (JoinSection, FusedJoin,
// FusedClose) — with what a recorder and the fault-injection harness see
// of it: BarrierEnter / BarrierLeave per process, SectionStart /
// SectionEnd and the barrier.section site around the section.  The
// section comes back wrapped only under a recorder or an armed plan.
func (p *Proc) barrierEnter(section func()) func() {
	p.f.tr.Record(p.id, trace.BarrierEnter, "", 0)
	if section != nil && (p.f.tr != nil || faultinject.Enabled()) {
		inner := section
		section = func() {
			faultinject.Fire(faultinject.BarrierSection, p.id, p.f.pc)
			p.f.tr.Record(p.id, trace.SectionStart, "", 0)
			inner()
			p.f.tr.Record(p.id, trace.SectionEnd, "", 0)
		}
	}
	faultinject.Fire(faultinject.BarrierEnter, p.id, p.f.pc)
	return section
}

func (p *Proc) barrierLeave() {
	faultinject.Fire(faultinject.BarrierExit, p.id, p.f.pc)
	p.f.tr.Record(p.id, trace.BarrierLeave, "", 0)
}

// Critical executes body inside the named critical section: at most one
// process of the force runs inside any section with the same name at a
// time (§3.4) — the paper's lock(name); body; unlock(name).  Lock
// variables are created on first use with the machine's lock mechanism,
// the Force's define_lock/init_lock; a process remembers the lock it
// entered last, for as long as the force's lock set is the one it came
// from (recoverAborted builds a new set; a sub-force has its own).
func (p *Proc) Critical(name string, body func()) {
	p.f.pc.Check()
	p.stats.Criticals.Add(1)
	m := &p.crit
	if m.set != p.f.locks || m.name != name {
		m.set, m.name, m.lk = p.f.locks, name, p.f.locks.Get(name)
	}
	l := m.lk
	if tl, ok := l.(lock.TryLocker); !ok || !tl.TryLock() {
		// Only an acquire that waits can stall on a holder that never
		// releases, so only it is recorded.
		p.WithSite(&siteCritical, l.Lock)
	}
	defer l.Unlock()
	p.f.tr.Record(p.id, trace.CriticalEnter, name, 0)
	body()
	p.f.tr.Record(p.id, trace.CriticalLeave, name, 0)
}

// PoisonEvery bounds how many iterations of one granted span run between
// poison checks (one atomic load each, noise at this interval).  Together
// with the check openSpans makes before every grant it is the abort
// cadence of every DOALL on every tier: the per-index adapter below
// (DoAll), the interpreter's span loops and the Go emitter all read it.
const PoisonEvery = 256

// DoAll runs the loop under an explicitly chosen discipline.  It is every
// per-index DOALL entry point: the span construct (DoAllChunked) with body
// called once per index of each granted span.
func (p *Proc) DoAll(kind sched.Kind, r sched.Range, body func(i int)) {
	p.DoAllChunked(kind, r, func(lo, hi, stride int) {
		i, di, ctr := r.Start+lo*r.Incr, stride*r.Incr, 0
		for k := lo; k < hi; k += stride {
			body(i)
			i += di
			if ctr++; ctr == PoisonEvery {
				ctr = 0
				p.f.pc.Check()
			}
		}
	})
}

// PreschedDo is the prescheduled DOALL: indices are dealt cyclically as a
// pure function of the process id — "completely machine independent, since
// only the number of executing processes is needed" (§4.2).
func (p *Proc) PreschedDo(r sched.Range, body func(i int)) {
	p.DoAll(sched.PreschedCyclic, r, body)
}

// SelfschedDo is the selfscheduled DOALL of the paper's expansion listing:
// a shared loop index behind the machine's lock, advanced by processes
// looking for more work.
func (p *Proc) SelfschedDo(r sched.Range, body func(i int)) {
	p.DoAll(sched.SelfLock, r, body)
}

// ChunkBody executes a whole scheduler span in one call: the ordinals
// lo, lo+stride, lo+2*stride, ... below hi.  Selfscheduled disciplines
// always hand out dense spans (stride 1); the cyclic prescheduled deal
// is expressed as one strided span per process.
type ChunkBody func(lo, hi, stride int)

// DoAllChunked is the DOALL: the spans openSpans (fused.go) deals this
// process are forwarded to the body WHOLE, and the paper's exit
// synchronization closes the construct (no process leaves before all have
// arrived; the loop cannot be reentered before all have left).  A
// selfscheduled discipline takes one ordinal per claim — the paper's
// (a Chunk claim its chunk); DoAllGranted is the entry point of a planner
// that sized the claim.  Poison is checked before every grant; a body
// looping over a long span checks every PoisonEvery iterations itself
// (Check) to keep abort latency bounded, as DoAll does for the per-index
// entry points.  The watchdog site covers the construct, and a recorder
// sees one LoopSpan event per grant.
func (p *Proc) DoAllChunked(kind sched.Kind, r sched.Range, chunk ChunkBody) {
	p.DoAllGranted(kind, 1, r, chunk)
}

// DoAllGranted is DoAllChunked with the grant chosen by the caller: one
// claim of a selfscheduled discipline takes grant ordinals, and a loop
// that fits one grant above 1 is run whole by process 0 without any claim.
// Which process runs which iteration of a selfscheduled loop is
// unspecified at any grant, so the grant is a cost decision only; the
// prescheduled deals ignore it.
func (p *Proc) DoAllGranted(kind sched.Kind, grant int, r sched.Range, chunk ChunkBody) {
	seq := p.openSpans(kind, grant, r, chunk)
	p.f.bar.Sync(p.id, nil)
	p.leaveSite()
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// DoAll2 runs a doubly nested loop under an explicitly chosen discipline.
// The two ranges are flattened into one ordinal space so that index
// *pairs* are the unit of distribution, the paper's "doubly nested loops"
// (§3.3).
func (p *Proc) DoAll2(kind sched.Kind, r1, r2 sched.Range, body func(i, j int)) {
	n2 := r2.Count()
	flat := sched.Seq(r1.Count() * n2)
	p.DoAll(kind, flat, func(k int) {
		body(r1.Index(k/n2), r2.Index(k%n2))
	})
}

// PreschedDo2 distributes the index pairs of a doubly nested loop
// prescheduled.
func (p *Proc) PreschedDo2(r1, r2 sched.Range, body func(i, j int)) {
	p.DoAll2(sched.PreschedCyclic, r1, r2, body)
}

// Block is one Pcase section: an independent single-stream code block,
// optionally guarded by a condition.  A nil Cond means unconditional.
// Conditions are evaluated by the process that would execute the block —
// "any number of conditions may be true simultaneously" (§3.3).
type Block struct {
	Cond func() bool
	Body func()
}

// Case builds an unconditional block.
func Case(body func()) Block { return Block{Body: body} }

// CaseIf builds a conditional block.
func CaseIf(cond func() bool, body func()) Block { return Block{Cond: cond, Body: body} }

// Pcase distributes the blocks over the force prescheduled: block b goes
// to process b mod NP, "allocat[ing] the blocks sequentially to the
// processes and ... thus completely machine independent" (§4.2).  Each
// block executes at most once (exactly once when its condition holds); no
// execution order may be assumed.  The construct closes with the implicit
// exit barrier.
func (p *Proc) Pcase(blocks ...Block) {
	p.f.pc.Check()
	p.nextSeq()
	for b := p.id; b < len(blocks); b += p.f.np {
		p.runBlock(blocks[b])
	}
	p.enterSite(&sitePcase)
	p.f.bar.Sync(p.id, nil)
	p.leaveSite()
}

// SelfschedPcase distributes the blocks over the force selfscheduled
// through one of the force's loop slots, like a selfscheduled DOALL.
// With the default discipline a shared block counter behind the machine's
// lock deals them out — the paper's "asynchronous variable ... needed for
// work distribution" (§4.2); the force's -selfsched (Variants.Selfsched)
// selects another selfscheduled discipline.
func (p *Proc) SelfschedPcase(blocks ...Block) {
	p.f.pc.Check()
	// Blocks are dealt one per claim whatever the discipline: Chunk's
	// least span would deal DefaultChunk, and its fetch-and-add at a span
	// of one is SelfAtomic's.
	kind := p.f.variants.Selfsched
	if kind == sched.Chunk {
		kind = sched.SelfAtomic
	}
	p.selfsched(p.nextSeq(), kind, len(blocks), 1, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			p.runBlock(blocks[b])
		}
	})
	p.enterSite(&sitePcase)
	p.f.bar.Sync(p.id, nil)
	p.leaveSite()
}

func (p *Proc) runBlock(b Block) {
	if b.Body == nil {
		return
	}
	if b.Cond != nil && !b.Cond() {
		return
	}
	p.stats.PcaseBlocks.Add(1)
	p.f.tr.Record(p.id, trace.PcaseBlock, "", 0)
	b.Body()
}

// Askfor is the most general work-distribution construct (§3.3, citing
// [LO83]): "the degree of concurrency is not known at compile time.
// Rather the program can request during run time that a new concurrent
// instance of the code segment is executed."
//
// Every process of the force repeatedly draws a task from the shared pool
// and runs body(task, put); body may call put to request new concurrent
// task instances.  The first process to reach the construct seeds the pool
// from its seed argument, so SPMD callers must pass the same seed in every
// process.  The construct terminates when the pool is empty and no task is
// executing; all processes then proceed.
//
// The pool is an engine.Pool: by default one locked task stack per
// process (put pushes on the putter's stack, get pops its newest task or
// takes another stack's oldest), or the [LO83]-style central monitor, one
// stack for the whole force, under Variants.Askfor (engine.MonitorPool).
// put must be called from the process executing body, which is the only
// caller the construct exposes it to.
func (p *Proc) Askfor(seed []any, body func(task any, put func(any))) {
	p.f.pc.Check()
	seq := p.nextSeq()
	pool := p.f.entry(seq, func() any {
		return engine.NewPool(p.f.variants.Askfor, p.f.np, seed, p.f.pc)
	}).(*engine.Pool)

	put := func(t any) {
		faultinject.Fire(faultinject.AskforPut, p.id, p.f.pc)
		pool.Put(p.id, t)
	}
	p.enterSite(&siteAskfor)
	for {
		// Per-task poison check: a worker that finds its next task
		// on its own stack never waits, so without this it could drain
		// an entire task chain after the force died.
		p.f.pc.Check()
		faultinject.Fire(faultinject.AskforTake, p.id, p.f.pc)
		task, ok := pool.Next(p.id)
		if !ok {
			break
		}
		p.stats.AskforTasks.Add(1)
		p.f.tr.Record(p.id, trace.AskforTask, "", 0)
		body(task, put)
		pool.Done(p.id)
	}
	// Close the construct; the last process through the exit barrier
	// drops the pool.
	p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	p.leaveSite()
}

// Component is one parallel code section of a Resolve: a weight (relative
// share of the force) and a body executed by the component's sub-force.
type Component struct {
	Weight int
	Body   func(sp *Proc)
}

// Resolve partitions the force into subsets executing different parallel
// code sections concurrently — the concept the paper lists as "yet
// unimplemented" (§3.3); this implementation is the repository's
// extension.
//
// Processes are divided among the components in proportion to their
// weights (every component receives at least one process when NP allows;
// otherwise trailing components are executed by the force sequentially in
// a second pass, preserving the all-components-execute guarantee).  Each
// component's body runs on a scoped sub-force: inside it, sp.ID() ranges
// over the component's processes, sp.NP() is the component's size, and
// barriers, loops and critical sections are private to the component.
// The construct closes with a full-force barrier.
func (p *Proc) Resolve(components ...Component) {
	p.f.pc.Check()
	seq := p.nextSeq()
	if len(components) == 0 {
		p.f.bar.Sync(p.id, nil)
		return
	}
	plan := p.f.entry(seq, func() any {
		return planResolve(p.f, components)
	}).(*resolvePlan)

	a := plan.assign[p.id]
	if a.component >= 0 {
		// The sub-force Proc keeps this process's watchdog slot, so a
		// stall inside the component is attributed to the right pid.
		sub := &Proc{id: a.rank, f: plan.sub[a.component], site: p.site}
		components[a.component].Body(sub)
	}
	// Components that received no processes run after an intermediate
	// full barrier, executed by the whole force as one sub-force each,
	// in order.
	if len(plan.leftover) > 0 {
		p.enterSite(&siteResolve)
		p.f.bar.Sync(p.id, nil)
		p.leaveSite()
		for _, ci := range plan.leftover {
			sub := &Proc{id: p.id, f: plan.sub[ci], site: p.site}
			components[ci].Body(sub)
		}
	}
	p.enterSite(&siteResolve)
	p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	p.leaveSite()
}

type resolveAssign struct {
	component int // -1: unassigned (cannot happen after planning)
	rank      int
}

type resolvePlan struct {
	assign   []resolveAssign
	sub      []*Force
	leftover []int // components that received zero processes
}

// planResolve allocates processes to components by largest-remainder
// apportionment over the weights.
func planResolve(f *Force, components []Component) *resolvePlan {
	np, nc := f.np, len(components)
	weights := make([]int, nc)
	total := 0
	for i, c := range components {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	counts := make([]int, nc)
	assigned := 0
	type rem struct{ idx, num int }
	rems := make([]rem, nc)
	for i, w := range weights {
		counts[i] = np * w / total
		rems[i] = rem{i, np * w % total}
		assigned += counts[i]
	}
	// Distribute the remainder to the largest fractional parts, stable
	// by index for determinism.
	for assigned < np {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].num > rems[best].num {
				best = j
			}
		}
		counts[rems[best].idx]++
		rems[best].num = -1
		assigned++
	}
	// Guarantee progress for every component while NP allows: steal one
	// process from the largest allocation for each empty component.
	for i := 0; i < nc; i++ {
		if counts[i] > 0 {
			continue
		}
		big, bigCount := -1, 1
		for j := 0; j < nc; j++ {
			if counts[j] > bigCount {
				big, bigCount = j, counts[j]
			}
		}
		if big >= 0 {
			counts[big]--
			counts[i]++
		}
	}

	plan := &resolvePlan{assign: make([]resolveAssign, np), sub: make([]*Force, nc)}
	pid := 0
	for i := 0; i < nc; i++ {
		if counts[i] == 0 {
			plan.leftover = append(plan.leftover, i)
			// Leftover components execute on the full force.
			plan.sub[i] = newSubForce(f, np)
			continue
		}
		plan.sub[i] = newSubForce(f, counts[i])
		for r := 0; r < counts[i]; r++ {
			plan.assign[pid] = resolveAssign{component: i, rank: r}
			pid++
		}
	}
	return plan
}

// newSubForce builds a scoped force sharing the parent's machine profile
// but with its own barrier, locks, loop slots and construct table.  Sub-forces
// have no workers of their own: their processes are the parent's workers,
// re-scoped.
func newSubForce(parent *Force, np int) *Force {
	sub := &Force{
		np:       np,
		profile:  parent.profile,
		newLock:  parent.newLock,
		variants: parent.variants,
		tr:       parent.tr,
		// Fault containment is force-wide: a sub-force's processes are
		// the parent's workers, so they share the parent's poison cell
		// and a failure in any component aborts the whole Resolve.
		// (No sites slice: sub-force Procs carry the parent process's
		// watchdog slot by pointer.)
		pc: parent.pc,
	}
	sub.initConstructs()
	return sub
}
