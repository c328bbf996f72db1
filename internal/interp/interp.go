// Package interp executes parsed Force programs SPMD on the core runtime:
// a force of goroutine processes runs the program body, with every Force
// construct mapped onto its internal/core implementation — DOALLs onto the
// span construct (core.DoAllGranted), Barrier sections onto the two-lock
// barrier (or, directly behind a DOALL or a reduction, onto that
// construct's closing collective), Critical onto named machine locks, Pcase onto block distribution,
// Produce/Consume onto the machine profile's asynchronous variables.
//
// Storage follows the paper's variable classification: shared and async
// variables (of the main program and of every subroutine, COMMON-like)
// are allocated once per run and shared by all processes; private
// variables live per process, and subroutine-local privates per call.
// Either way an improperly synchronized Force program remains a
// well-defined (if nondeterministic) Go program.
//
// One closure compiler and one tree walker implement those semantics
// (Config.Exec):
//
//   - ExecChunked (the default) and ExecCompiled are one staged engine:
//     the checker has bound every variable reference to a (storage, unit,
//     slot) symbol, a layout pass (resolve.go) sizes the frames and the
//     shared storage from those slots, and the closure compiler
//     (compile.go) turns the checked AST into a tree of typed closures
//     over index-addressed frames.  Private variables are direct slot
//     accesses; shared scalars and shared array elements are individual
//     atomic words read and written unboxed (store.go), so an interpreted
//     DOALL over disjoint elements runs in parallel.  The compiler has one
//     statement-list driver (compiler.stmts): internal/plan lowers the
//     list to nodes (plan.Target.Next) and each node compiles to one
//     closure — a DOALL always to the same span loop (chunkParDo), a
//     reduction always to the force's one closing collective (region).
//     The modes differ in the LEVEL of the plan.Target, not in the
//     compiler.  ExecChunked asks for everything: a body the shared
//     classifier proves safe compiles in chunk mode (chunk.go: index in
//     the chunk context, uniform subexpressions hoisted, accumulates
//     folded, block deal, sized grant), and adjacent independent DOALLs,
//     a trailing reduction and a Barrier behind them share one collective
//     (fuse.go).  Config.NoFuse asks for the plans without the sharing.
//     ExecCompiled is "the planner is off": every node comes back
//     unplanned — the cyclic deal or one iteration per claim, nothing
//     hoisted, folded or fused — the reference the equivalence tests
//     hold the planner's decisions against.
//   - ExecTree is the original tree walker: names resolved through
//     string maps on every access and all shared storage serialized by
//     one per-run mutex.  It is the differential-test oracle; like
//     ExecCompiled and NoFuse it is set through Config only, never
//     from a command line.
//
// All of them give the shared accumulate one meaning (README,
// "Semantics"): `S = S + e` and its recognised siblings
// (plan.MatchAccum) are atomic updates of the shared scalar.
//
// Error handling is fault-contained, unlike the original system's: a
// runtime error (subscript out of range, division by zero) in any
// process — even a non-SPMD-uniform one — poisons the force, wakes
// every peer blocked in a barrier, reduction, Askfor pool or
// asynchronous variable, and Run returns the first error once all
// processes have stopped.  On the 1989 machines the same failure left
// the peers blocked forever; the runtime's poison protocol (see
// internal/poison and core.Force.Run) removes that failure mode at
// every NP, under every execution engine.
package interp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config configures one interpreter run.
type Config struct {
	// NP is the number of processes in the force (default 4).
	NP int
	// Machine is the machine profile (default machine.Native).
	Machine machine.Profile
	// Barrier is the global barrier algorithm (default the paper's
	// two-lock barrier).
	Barrier barrier.Kind
	// Stdout receives Print output (default io.Discard).
	Stdout io.Writer
	// Trace, when non-nil, records every construct edge the program
	// crosses for post-run validation (see internal/trace) — DOALLs as
	// one event per granted span.  It selects nothing: a traced run takes
	// the same tier, plan and fusion decisions as an untraced one.
	Trace *trace.Recorder
	// Selfsched selects the discipline executing Selfsched DO loops and
	// selfscheduled Pcase blocks.  The zero value selects the paper's
	// lock-based selfscheduling (sched.SelfLock); sched.SelfAtomic and
	// sched.Chunk deal them by fetch-and-add instead.
	Selfsched sched.Kind
	// Askfor selects the pool discipline behind language-level Askfor
	// statements: one task stack per process (zero value) or the
	// [LO83]-style central monitor's one stack (engine.MonitorPool).
	Askfor engine.PoolKind
	// Reduce selects the strategy executing the global-reduction
	// statements (GSUM, GPROD, GMAX, GMIN, GAND, GOR): per-process
	// padded slots (zero value) or the paper's critical-section baseline
	// (reduce.Critical).
	Reduce reduce.Kind
	// Exec selects the execution engine: the closure compiler with the
	// DOALL planner on (zero value) or off (ExecCompiled), or the
	// original tree walker (ExecTree).
	Exec ExecMode
	// NoFuse lowers the planner's level under ExecChunked from
	// plan.Fused to plan.Planned: adjacent independent DOALLs and a
	// trailing reduction keep their own exit barriers and reduce episodes
	// instead of sharing one fused join, and every Barrier statement is
	// an episode of its own instead of riding the closing collective
	// before it.  The other modes already ask for less.
	NoFuse bool
	// FuseLog, when non-nil, receives the planner's decisions once per
	// Run, at compile time: each plan.Node's lines, rendered from its
	// fields by Node.Narrate — the span check of each planned DOALL that
	// subscripts a shared array last, as the Go emitter narrates them.
	FuseLog func(msg string)
	// OnForce, when non-nil, is called with the freshly created force
	// before execution starts.  forcerun's -timeout takes the force's
	// Blocked report through it at the deadline; forcemark reads the
	// force's Stats.
	OnForce func(f *core.Force)
	// Context, when non-nil, bounds the run externally: its cancellation
	// or deadline poisons the force (core.Force.RunContext), every
	// blocked process unwinds, and Run returns the context's error.  A
	// nil Context runs unbounded (context.Background()).
	Context context.Context
}

// ExecMode selects the interpreter's execution engine.
type ExecMode int

const (
	// ExecChunked is the closure compiler with the DOALL planner on:
	// provably safe DOALL bodies are chunk-compiled, block-dealt and
	// fused; everything else runs exactly as ExecCompiled.  The default.
	ExecChunked ExecMode = iota
	// ExecCompiled is the same closure compiler with the planner off
	// (plan.Plain): every DOALL is the plan-less span loop — chunk mode
	// never entered, nothing fused.  Kept as the differential reference
	// for the planner's decisions.
	ExecCompiled
	// ExecTree is the original tree walker: map-addressed frames and one
	// global mutex serializing all shared access.  Kept as the semantic
	// baseline.
	ExecTree
)

// String returns the CLI spelling of the mode.
func (m ExecMode) String() string {
	switch m {
	case ExecTree:
		return "tree"
	case ExecCompiled:
		return "compiled"
	default:
		return "chunked"
	}
}

// ExecModes lists the engines, baseline first.
func ExecModes() []ExecMode { return []ExecMode{ExecTree, ExecCompiled, ExecChunked} }

// Run executes the program and returns the first runtime error, if any.
func Run(prog *forcelang.Program, cfg Config) error {
	if cfg.NP <= 0 {
		cfg.NP = 4
	}
	if cfg.Machine.Name == "" {
		cfg.Machine = machine.Native
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	if cfg.Selfsched == 0 {
		cfg.Selfsched = sched.SelfLock
	}
	if cfg.Exec == ExecTree {
		return runTree(prog, cfg)
	}
	return runCompiled(prog, cfg)
}

// newForce creates the force a run of cfg executes on, on every tier.
func newForce(cfg Config) *core.Force {
	return core.New(cfg.NP, core.WithMachine(cfg.Machine), core.WithTrace(cfg.Trace),
		core.WithVariants(core.Variants{Selfsched: cfg.Selfsched, Reduce: cfg.Reduce,
			Barrier: cfg.Barrier, Askfor: cfg.Askfor}))
}

// runTree executes the program on the original tree walker.
func runTree(prog *forcelang.Program, cfg Config) (err error) {
	f := newForce(cfg)
	defer f.Close()
	in := newInstance(prog, cfg, f)
	if cfg.OnForce != nil {
		cfg.OnForce(f)
	}
	defer func() {
		// Flush in every exit path, but never let a flush error clobber
		// the run's own failure (a cancellation error, an abort).
		flushErr := in.flush()
		if r := recover(); r != nil {
			err = recoverRunErr(r)
			return
		}
		if err == nil {
			err = flushErr
		}
	}()
	return f.RunContext(runCtx(cfg), func(p *core.Proc) {
		pr := &proc{in: in, p: p}
		pr.runMain()
	})
}

// runCtx resolves the run's bounding context.
func runCtx(cfg Config) context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// recoverRunErr converts a panic that unwound out of a force run into
// the error Run reports: Force runtime errors become error returns,
// anything else (an interpreter bug) re-panics.
func recoverRunErr(r any) error {
	switch t := r.(type) {
	case *forcert.Err:
		return t
	case *faultinject.Error:
		// A chaos-harness injection is a deliberate process failure, not
		// an interpreter bug: report it like any force runtime error.
		return t
	default:
		panic(r)
	}
}

// value is a Force runtime value.
type value struct {
	t forcelang.Type
	i int64
	r float64
	b bool
}

func intVal(i int64) value    { return value{t: forcelang.TInt, i: i} }
func realVal(r float64) value { return value{t: forcelang.TReal, r: r} }
func boolVal(b bool) value    { return value{t: forcelang.TLogical, b: b} }
func (v value) asReal() float64 {
	if v.t == forcelang.TInt {
		return float64(v.i)
	}
	return v.r
}

// coerce converts v to type t (numeric conversions only; the checker has
// already rejected logical/numeric mixing).
func coerce(v value, t forcelang.Type, line int) value {
	if v.t == t {
		return v
	}
	switch t {
	case forcelang.TInt:
		return intVal(int64(v.asReal())) // Fortran truncation
	case forcelang.TReal:
		return realVal(v.asReal())
	default:
		panic(forcert.Errorf(line, "cannot coerce %v to %s", v.t, t))
	}
}

// printTo appends v to a Print line as an item of its type.
func (v value) printTo(line *forcert.Line) {
	switch v.t {
	case forcelang.TInt:
		line.Int(v.i)
	case forcelang.TReal:
		line.Real(v.r)
	default:
		line.Bool(v.b)
	}
}

// arrayVal is array storage with Fortran 1-based column-ignorant indexing
// (row-major over the declared dims).
type arrayVal struct {
	dims []int
	data []value
}

func newArray(d forcelang.Decl) *arrayVal {
	a := &arrayVal{dims: d.Dims, data: make([]value, d.Size())}
	zero := value{t: d.Type}
	for i := range a.data {
		a.data[i] = zero
	}
	return a
}

// offset converts 1-based subscripts to a flat offset.
func (a *arrayVal) offset(subs []int64, name string, line int) int {
	off := 0
	for k, s := range subs {
		if s < 1 || s > int64(a.dims[k]) {
			panic(&forcert.Err{Line: line, Kind: forcert.BadSubscript, Dim: k + 1, Name: name, S: s, N: int64(a.dims[k])})
		}
		off = off*a.dims[k] + int(s-1)
	}
	return off
}

// binding is one variable's storage: a scalar cell or an array.
type binding struct {
	decl   forcelang.Decl
	p      *value
	a      *arrayVal
	shared bool
}

func newBinding(d forcelang.Decl, shared bool) *binding {
	b := &binding{decl: d, shared: shared}
	if len(d.Dims) > 0 {
		b.a = newArray(d)
	} else {
		v := value{t: d.Type}
		b.p = &v
	}
	return b
}

// outsink is the serialized Print sink shared by both execution engines.
type outsink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

func newOutsink(w io.Writer) *outsink { return &outsink{w: bufio.NewWriter(w)} }

func (o *outsink) writeLine(s string) {
	o.mu.Lock()
	if _, err := o.w.WriteString(s); err != nil && o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *outsink) flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.w.Flush(); err != nil && o.err == nil {
		o.err = err
	}
	return o.err
}

// instance is the shared state of one tree-walker run.
type instance struct {
	prog *forcelang.Program
	cfg  Config
	// accums caches plan.MatchAccum's verdict per statement, so this
	// walker and the closure compiler recognise the same statements as
	// shared accumulates.
	accums sync.Map // *forcelang.Assign -> *plan.Accum (nil: not an accumulate)

	mu     sync.Mutex // serializes shared storage access
	shared map[string]map[string]*binding
	asyncs map[string]*asyncEntry
	notes  sync.Map // forcelang.Stmt -> *string: cached blocked-process notes

	out *outsink
}

// asyncCell is one asynchronous cell of the interpreter's values.
type asyncCell = asyncvar.V[value]

// asyncOp is a Produce, Consume or Copy statement's transition on every
// interpreter tier.  The cell is tried once, and only when it is not ready
// does the process record the statement's note and the async-variable site
// and wait — the rule core.Proc.Critical follows — so a statement that does
// not wait costs its full/empty word alone.
func asyncOp(p *core.Proc, cell asyncCell, op asyncvar.Op, v value, note *string) value {
	if got, ok := cell.Try(op, v); ok {
		return got
	}
	p.Note(note)
	p.WithSite(&core.AsyncSiteLabel, func() { v = cell.Await(op, v) })
	return v
}

// asyncEntry is one asynchronous variable: a scalar cell or an array of
// cells (the HEP's per-cell full/empty idiom).
type asyncEntry struct {
	cell asyncCell
	arr  *asyncvar.Array[value]
}

// newAsyncEntry allocates one asynchronous variable with the force's
// machine profile, bound to its fault cell (core.NewAsync).
func newAsyncEntry(d forcelang.Decl, f *core.Force) *asyncEntry {
	if len(d.Dims) == 1 {
		return &asyncEntry{arr: core.NewAsyncArray[value](f, d.Dims[0])}
	}
	return &asyncEntry{cell: core.NewAsync[value](f)}
}

// at resolves the cell for a use with optional 1-based subscript sub
// (subPresent false for scalar uses; the checker has already matched use
// shape to declaration shape).
func (e *asyncEntry) at(sub int64, subPresent bool, name string, line int) asyncCell {
	if !subPresent {
		return e.cell
	}
	if e.arr == nil {
		panic(forcert.Errorf(line, "async scalar %s used with a subscript", name))
	}
	return e.arr.At(forcert.AsyncIdx(line, name, sub, e.arr.Len()))
}

func newInstance(prog *forcelang.Program, cfg Config, f *core.Force) *instance {
	in := &instance{
		prog:   prog,
		cfg:    cfg,
		shared: map[string]map[string]*binding{},
		asyncs: map[string]*asyncEntry{},
		out:    newOutsink(cfg.Stdout),
	}
	allocUnit := func(unit string, decls []forcelang.Decl, params []string) {
		isParam := func(name string) bool {
			for _, p := range params {
				if p == name {
					return true
				}
			}
			return false
		}
		m := map[string]*binding{}
		for _, d := range decls {
			if isParam(d.Name) {
				// Parameters alias caller storage at call time.
				continue
			}
			switch d.Class {
			case forcelang.Shared:
				m[d.Name] = newBinding(d, true)
			case forcelang.Async:
				in.asyncs[unit+"."+d.Name] = newAsyncEntry(d, f)
			}
		}
		in.shared[unit] = m
	}
	allocUnit("", prog.Decls, nil)
	for _, sub := range prog.Subs {
		allocUnit(sub.Name, sub.Decls, sub.Params)
	}
	// NP is a shared integer every unit can read.
	npDecl := forcelang.Decl{Class: forcelang.Shared, Type: forcelang.TInt, Name: prog.NPVar}
	npB := newBinding(npDecl, true)
	npB.p.i = int64(cfg.NP)
	in.shared[""][prog.NPVar] = npB
	return in
}

func (in *instance) flush() error { return in.out.flush() }

// asyncFor resolves an async variable visible from unit: unit-local entry
// first, then the main program's (COMMON-like) entry.
func (in *instance) asyncFor(unit, name string, line int) *asyncEntry {
	if e, ok := in.asyncs[unit+"."+name]; ok {
		return e
	}
	if e, ok := in.asyncs["."+name]; ok {
		return e
	}
	panic(forcert.Errorf(line, "async variable %s not found", name))
}

// tframe is one tree-walker call frame: the name-to-binding map for the
// executing unit.
type tframe struct {
	unit string
	vars map[string]*binding
}

// proc is one force process executing the program.
type proc struct {
	in *instance
	p  *core.Proc
	// puts is the stack of enclosing Askfor put functions; the innermost
	// one serves Put statements.
	puts []func(any)
}

// newMainFrame builds the main program's frame for this process: private
// declarations fresh, shared declarations from the instance, ME bound to
// the process id.
func (pr *proc) newMainFrame() *tframe {
	f := &tframe{unit: "", vars: map[string]*binding{}}
	for _, d := range pr.in.prog.Decls {
		switch d.Class {
		case forcelang.Private:
			f.vars[d.Name] = newBinding(d, false)
		case forcelang.Shared:
			f.vars[d.Name] = pr.in.shared[""][d.Name]
		}
	}
	f.vars[pr.in.prog.NPVar] = pr.in.shared[""][pr.in.prog.NPVar]
	me := newBinding(forcelang.Decl{Class: forcelang.Private, Type: forcelang.TInt, Name: pr.in.prog.MeVar}, false)
	me.p.i = int64(pr.p.ID())
	f.vars[pr.in.prog.MeVar] = me
	return f
}

func (pr *proc) runMain() {
	f := pr.newMainFrame()
	pr.stmts(pr.in.prog.Body, f)
}

// lookup resolves a name in the frame, falling back to main shared
// variables (COMMON) when executing a subroutine.
func (pr *proc) lookup(f *tframe, name string, line int) *binding {
	if b, ok := f.vars[name]; ok {
		return b
	}
	if f.unit != "" {
		if b, ok := pr.in.shared[""][name]; ok {
			return b
		}
	}
	panic(forcert.Errorf(line, "undefined variable %s", name))
}

// loadScalar reads a scalar binding under the shared mutex when needed.
func (pr *proc) loadScalar(b *binding, line int) value {
	if b.p == nil {
		panic(forcert.Errorf(line, "%s is an array", b.decl.Name))
	}
	if b.shared {
		pr.in.mu.Lock()
		defer pr.in.mu.Unlock()
	}
	return *b.p
}

func (pr *proc) storeScalar(b *binding, v value, line int) {
	if b.p == nil {
		panic(forcert.Errorf(line, "%s is an array", b.decl.Name))
	}
	v = coerce(v, b.decl.Type, line)
	if b.shared {
		pr.in.mu.Lock()
		defer pr.in.mu.Unlock()
	}
	*b.p = v
}

func (pr *proc) loadElem(b *binding, subs []int64, name string, line int) value {
	off := b.a.offset(subs, name, line)
	if b.shared {
		pr.in.mu.Lock()
		defer pr.in.mu.Unlock()
	}
	return b.a.data[off]
}

func (pr *proc) storeElem(b *binding, subs []int64, v value, name string, line int) {
	off := b.a.offset(subs, name, line)
	v = coerce(v, b.decl.Type, line)
	if b.shared {
		pr.in.mu.Lock()
		defer pr.in.mu.Unlock()
	}
	b.a.data[off] = v
}

// --- statements --------------------------------------------------------

func (pr *proc) stmts(list []forcelang.Stmt, f *tframe) {
	for _, st := range list {
		pr.stmt(st, f)
	}
}

// note records the statement's source location with the core runtime,
// so forcerun -timeout can report which line each blocked process is
// waiting at.  Called before every potentially blocking statement (an
// async statement's only when it waits, asyncOp); the note string is
// built once per statement node and cached in the instance, so
// steady-state executions pay a map lookup, not a format and an
// allocation.
func (pr *proc) note(st forcelang.Stmt, kind, name string) { pr.p.Note(pr.noteFor(st, kind, name)) }

// noteFor returns the statement's cached note.
func (pr *proc) noteFor(st forcelang.Stmt, kind, name string) *string {
	if v, ok := pr.in.notes.Load(st); ok {
		return v.(*string)
	}
	label := kind
	if name != "" {
		label += " " + name
	}
	s := fmt.Sprintf("%s, line %d", label, st.Pos())
	v, _ := pr.in.notes.LoadOrStore(st, &s)
	return v.(*string)
}

func (pr *proc) stmt(st forcelang.Stmt, f *tframe) {
	switch t := st.(type) {
	case *forcelang.Assign:
		if !pr.accumulate(t, f) {
			pr.assign(&t.Target, pr.eval(t.Expr, f), f)
		}
	case *forcelang.If:
		if pr.evalBool(t.Cond, f) {
			pr.stmts(t.Then, f)
		} else {
			pr.stmts(t.Else, f)
		}
	case *forcelang.SeqDo:
		from, to, step := pr.loopBounds(t.From, t.To, t.Step, f)
		lv := pr.lookup(f, t.Var, t.Pos())
		for i, step, n := forcert.Do(from, to, step); n > 0; i, n = i+step, n-1 {
			// A poisoned force must not wait out a long sequential loop.
			if n%core.PoisonEvery == 0 {
				pr.p.Check()
			}
			pr.storeScalar(lv, intVal(i), t.Pos())
			pr.stmts(t.Body, f)
		}
	case *forcelang.WhileDo:
		for pr.evalBool(t.Cond, f) {
			// A poisoned force must not wait out a (possibly unbounded)
			// sequential loop; -timeout relies on this check.
			pr.p.Check()
			pr.stmts(t.Body, f)
		}
	case *forcelang.ParDo:
		pr.note(t, "DOALL", "")
		pr.parDo(t, f)
	case *forcelang.BarrierStmt:
		pr.note(t, "Barrier", "")
		pr.p.BarrierSection(func() { pr.stmts(t.Section, f) })
	case *forcelang.CriticalStmt:
		pr.note(t, "Critical", t.Name)
		pr.p.Critical(t.Name, func() { pr.stmts(t.Body, f) })
	case *forcelang.PcaseStmt:
		pr.note(t, "Pcase", "")
		blocks := make([]core.Block, len(t.Blocks))
		for i := range t.Blocks {
			b := t.Blocks[i]
			var cond func() bool
			if b.Cond != nil {
				cond = func() bool { return pr.evalBool(b.Cond, f) }
			}
			blocks[i] = core.Block{Cond: cond, Body: func() { pr.stmts(b.Body, f) }}
		}
		if t.Selfsched {
			pr.p.SelfschedPcase(blocks...)
		} else {
			pr.p.Pcase(blocks...)
		}
	case *forcelang.AskforStmt:
		pr.note(t, "Askfor", "")
		pr.askfor(t, f)
	case *forcelang.ReduceStmt:
		pr.note(t, t.Op.String(), "")
		pr.greduce(t, f)
	case *forcelang.PutStmt:
		if len(pr.puts) == 0 {
			panic(forcert.Errorf(t.Pos(), "Put outside an Askfor body"))
		}
		pr.puts[len(pr.puts)-1](pr.evalInt(t.Expr, f))
	case *forcelang.ProduceStmt:
		cell := pr.asyncCellFor(f, t.Var, t.Sub, t.Pos())
		v := pr.eval(t.Expr, f)
		asyncOp(pr.p, cell, asyncvar.OpProduce, v, pr.noteFor(t, "Produce", t.Var))
	case *forcelang.ConsumeStmt:
		cell := pr.asyncCellFor(f, t.Var, t.Sub, t.Pos())
		pr.assign(&t.Target, asyncOp(pr.p, cell, asyncvar.OpConsume, value{}, pr.noteFor(t, "Consume", t.Var)), f)
	case *forcelang.CopyStmt:
		cell := pr.asyncCellFor(f, t.Var, t.Sub, t.Pos())
		pr.assign(&t.Target, asyncOp(pr.p, cell, asyncvar.OpCopy, value{}, pr.noteFor(t, "Copy", t.Var)), f)
	case *forcelang.VoidStmt:
		cell := pr.asyncCellFor(f, t.Var, t.Sub, t.Pos())
		pr.note(t, "Void", t.Var) // Void can block on a racing consumer
		pr.p.WithSite(&core.AsyncSiteLabel, cell.Void)
	case *forcelang.PrintStmt:
		pr.print(t, f)
	case *forcelang.CallStmt:
		pr.call(t, f)
	default:
		panic(forcert.Errorf(st.Pos(), "unhandled statement %T", st))
	}
}

// asyncCellFor resolves the cell addressed by an async statement,
// evaluating the optional subscript.
func (pr *proc) asyncCellFor(f *tframe, name string, sub forcelang.Expr, line int) asyncCell {
	e := pr.in.asyncFor(f.unit, name, line)
	if sub == nil {
		return e.at(0, false, name, line)
	}
	return e.at(pr.evalInt(sub, f), true, name, line)
}

func (pr *proc) loopBounds(fromE, toE, stepE forcelang.Expr, f *tframe) (from, to, step int64) {
	from = pr.evalInt(fromE, f)
	to = pr.evalInt(toE, f)
	step = 1
	if stepE != nil {
		step = pr.evalInt(stepE, f)
		if step == 0 {
			panic(&forcert.Err{Line: fromE.Pos(), Kind: forcert.ZeroStep})
		}
	}
	return
}

func (pr *proc) parDo(t *forcelang.ParDo, f *tframe) {
	from, to, step := pr.loopBounds(t.From, t.To, t.Step, f)
	r := sched.Range{Start: int(from), Last: int(to), Incr: int(step)}
	lv := pr.lookup(f, t.Var, t.Pos())
	if t.Inner == nil {
		body := func(i int) {
			pr.storeScalar(lv, intVal(int64(i)), t.Pos())
			pr.stmts(t.Body, f)
		}
		if t.Sched == forcelang.Presched {
			pr.p.PreschedDo(r, body)
		} else {
			pr.p.DoAll(pr.in.cfg.Selfsched, r, body)
		}
		return
	}
	ifrom, ito, istep := pr.loopBounds(t.Inner.From, t.Inner.To, t.Inner.Step, f)
	r2 := sched.Range{Start: int(ifrom), Last: int(ito), Incr: int(istep)}
	ilv := pr.lookup(f, t.Inner.Var, t.Pos())
	body := func(i, j int) {
		pr.storeScalar(lv, intVal(int64(i)), t.Pos())
		pr.storeScalar(ilv, intVal(int64(j)), t.Pos())
		pr.stmts(t.Body, f)
	}
	if t.Sched == forcelang.Presched {
		pr.p.PreschedDo2(r, r2, body)
	} else {
		pr.p.DoAll2(pr.in.cfg.Selfsched, r, r2, body)
	}
}

// askfor executes the language-level Askfor on the runtime's engine pool:
// the seed expression's value (SPMD-identical in every process) seeds the
// pool, each drawn task binds the private task variable, and Put
// statements in the body enqueue onto the innermost pool.
func (pr *proc) askfor(t *forcelang.AskforStmt, f *tframe) {
	seed := pr.evalInt(t.Seed, f)
	lv := pr.lookup(f, t.Var, t.Pos())
	pr.p.Askfor([]any{seed}, func(task any, put func(any)) {
		pr.storeScalar(lv, intVal(task.(int64)), t.Pos())
		pr.puts = append(pr.puts, put)
		defer func() { pr.puts = pr.puts[:len(pr.puts)-1] }()
		pr.stmts(t.Body, f)
	})
}

// greduce executes a global-reduction statement: evaluate the operand,
// coerce it to the target's type (the reduction is performed in the
// target's type, so the interpreter and the code generator combine in
// the same arithmetic), reduce across the force, and assign the combined
// value to the target.  The interpreter assigns per process — its shared
// storage is mutex-serialized, and every process stores the same value.
func (pr *proc) greduce(t *forcelang.ReduceStmt, f *tframe) {
	tb := pr.lookup(f, t.Target.Name, t.Pos())
	v := pr.eval(t.Expr, f)
	var out value
	switch {
	case t.Op.Logical():
		b := v.b
		if t.Op == forcelang.GAnd {
			out = boolVal(core.Gand(pr.p, b))
		} else {
			out = boolVal(core.Gor(pr.p, b))
		}
	case tb.decl.Type == forcelang.TInt:
		out = intVal(greduceNum(pr.p, t.Op, coerce(v, forcelang.TInt, t.Pos()).i))
	default:
		out = realVal(greduceNum(pr.p, t.Op, v.asReal()))
	}
	pr.assign(&t.Target, out, f)
}

// greduceNum dispatches a numeric reduction over the operand type.
func greduceNum[T core.Number](p *core.Proc, op forcelang.GOp, x T) T {
	switch op {
	case forcelang.GSum:
		return core.Gsum(p, x)
	case forcelang.GProd:
		return core.Gprod(p, x)
	case forcelang.GMax:
		return core.Gmax(p, x)
	default:
		return core.Gmin(p, x)
	}
}

func (pr *proc) print(t *forcelang.PrintStmt, f *tframe) {
	var line forcert.Line
	for _, item := range t.Items {
		if s, ok := item.(*forcelang.StrLit); ok {
			line.Str(s.Value)
			continue
		}
		pr.eval(item, f).printTo(&line)
	}
	pr.in.out.writeLine(line.String())
}

func (pr *proc) call(t *forcelang.CallStmt, f *tframe) {
	sub := pr.in.prog.Sub(t.Name)
	if sub == nil {
		panic(forcert.Errorf(t.Pos(), "undefined subroutine %s", t.Name))
	}
	nf := &tframe{unit: sub.Name, vars: map[string]*binding{}}
	// Parameters bind by reference to the caller's storage.
	for i, param := range sub.Params {
		arg := t.Args[i]
		ab := pr.lookup(f, arg.Name, t.Pos())
		if len(arg.Subs) > 0 {
			// Element reference: alias the single cell.
			subs := pr.evalSubs(arg.Subs, f)
			off := ab.a.offset(subs, arg.Name, t.Pos())
			pb := &binding{
				decl:   forcelang.Decl{Class: ab.decl.Class, Type: ab.decl.Type, Name: param},
				p:      &ab.a.data[off],
				shared: ab.shared,
			}
			nf.vars[param] = pb
			continue
		}
		alias := *ab
		alias.decl.Name = param
		nf.vars[param] = &alias
	}
	paramSet := map[string]bool{}
	for _, p := range sub.Params {
		paramSet[p] = true
	}
	// Locals: private fresh per call; shared from the instance.
	for _, d := range sub.Decls {
		if paramSet[d.Name] {
			continue
		}
		switch d.Class {
		case forcelang.Private:
			nf.vars[d.Name] = newBinding(d, false)
		case forcelang.Shared:
			nf.vars[d.Name] = pr.in.shared[sub.Name][d.Name]
		}
	}
	// NP and ME are visible everywhere.
	nf.vars[pr.in.prog.NPVar] = pr.in.shared[""][pr.in.prog.NPVar]
	me := newBinding(forcelang.Decl{Class: forcelang.Private, Type: forcelang.TInt, Name: pr.in.prog.MeVar}, false)
	me.p.i = int64(pr.p.ID())
	nf.vars[pr.in.prog.MeVar] = me
	pr.stmts(sub.Body, nf)
}

func (pr *proc) assign(target *forcelang.Ref, v value, f *tframe) {
	b := pr.lookup(f, target.Name, target.Pos())
	if len(target.Subs) == 0 {
		pr.storeScalar(b, v, target.Pos())
		return
	}
	subs := pr.evalSubs(target.Subs, f)
	pr.storeElem(b, subs, v, target.Name, target.Pos())
}

// accumulate executes t as one indivisible update when it is a shared
// accumulate (MatchAccum): the operand is evaluated first, then the
// load, the combine and the store happen under the shared-memory mutex,
// with the strict compares of the MAX/MIN intrinsics.  It reports false,
// having done nothing, for every other assignment.
func (pr *proc) accumulate(t *forcelang.Assign, f *tframe) bool {
	v, cached := pr.in.accums.Load(t)
	if !cached {
		var verdict *plan.Accum
		if a, ok := plan.MatchAccum(t); ok {
			verdict = &a
		}
		v, _ = pr.in.accums.LoadOrStore(t, verdict)
	}
	acc := v.(*plan.Accum)
	if acc == nil {
		return false
	}
	x := pr.eval(acc.Operand, f)
	s := pr.lookup(f, t.Target.Name, t.Pos()).p
	pr.in.mu.Lock()
	defer pr.in.mu.Unlock()
	switch {
	case acc.Op == plan.AccSum && acc.Negate:
		s.i -= x.i
	case acc.Op == plan.AccSum:
		s.i += x.i
	case acc.Real:
		if v := x.asReal(); (acc.Op == plan.AccMax && v > s.r) || (acc.Op == plan.AccMin && v < s.r) {
			s.r = v
		}
	default:
		if (acc.Op == plan.AccMax && x.i > s.i) || (acc.Op == plan.AccMin && x.i < s.i) {
			s.i = x.i
		}
	}
	return true
}

func (pr *proc) evalSubs(subs []forcelang.Expr, f *tframe) []int64 {
	out := make([]int64, len(subs))
	for i, s := range subs {
		out[i] = pr.evalInt(s, f)
	}
	return out
}

// --- expressions -------------------------------------------------------

func (pr *proc) eval(e forcelang.Expr, f *tframe) value {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return intVal(t.Value)
	case *forcelang.RealLit:
		return realVal(t.Value)
	case *forcelang.BoolLit:
		return boolVal(t.Value)
	case *forcelang.StrLit:
		panic(forcert.Errorf(t.Pos(), "string in expression"))
	case *forcelang.Ref:
		b := pr.lookup(f, t.Name, t.Pos())
		if len(t.Subs) == 0 {
			return pr.loadScalar(b, t.Pos())
		}
		return pr.loadElem(b, pr.evalSubs(t.Subs, f), t.Name, t.Pos())
	case *forcelang.Un:
		x := pr.eval(t.X, f)
		if t.Neg {
			if x.t == forcelang.TInt {
				return intVal(-x.i)
			}
			return realVal(-x.r)
		}
		return boolVal(!x.b)
	case *forcelang.Bin:
		return pr.evalBin(t, f)
	case *forcelang.Intrinsic:
		return pr.evalIntrinsic(t, f)
	default:
		panic(forcert.Errorf(e.Pos(), "unhandled expression %T", e))
	}
}

func (pr *proc) evalBool(e forcelang.Expr, f *tframe) bool {
	v := pr.eval(e, f)
	if v.t != forcelang.TLogical {
		panic(forcert.Errorf(e.Pos(), "expected LOGICAL, got %s", v.t))
	}
	return v.b
}

func (pr *proc) evalInt(e forcelang.Expr, f *tframe) int64 {
	return coerce(pr.eval(e, f), forcelang.TInt, e.Pos()).i
}

func (pr *proc) evalBin(t *forcelang.Bin, f *tframe) value {
	// Short-circuit logical operators.
	switch t.Op {
	case forcelang.OpAnd:
		return boolVal(pr.evalBool(t.L, f) && pr.evalBool(t.R, f))
	case forcelang.OpOr:
		return boolVal(pr.evalBool(t.L, f) || pr.evalBool(t.R, f))
	}
	l := pr.eval(t.L, f)
	r := pr.eval(t.R, f)
	switch t.Op {
	case forcelang.OpAdd, forcelang.OpSub, forcelang.OpMul, forcelang.OpDiv:
		if l.t == forcelang.TInt && r.t == forcelang.TInt {
			switch t.Op {
			case forcelang.OpAdd:
				return intVal(l.i + r.i)
			case forcelang.OpSub:
				return intVal(l.i - r.i)
			case forcelang.OpMul:
				return intVal(l.i * r.i)
			default:
				if r.i == 0 {
					panic(&forcert.Err{Line: t.Pos(), Kind: forcert.DivZero})
				}
				return intVal(l.i / r.i)
			}
		}
		lf, rf := l.asReal(), r.asReal()
		switch t.Op {
		case forcelang.OpAdd:
			return realVal(lf + rf)
		case forcelang.OpSub:
			return realVal(lf - rf)
		case forcelang.OpMul:
			return realVal(lf * rf)
		default:
			return realVal(lf / rf) // IEEE semantics for real division
		}
	case forcelang.OpEq, forcelang.OpNe:
		if l.t == forcelang.TLogical || r.t == forcelang.TLogical {
			eq := l.b == r.b
			if t.Op == forcelang.OpNe {
				eq = !eq
			}
			return boolVal(eq)
		}
		fallthrough
	case forcelang.OpLt, forcelang.OpLe, forcelang.OpGt, forcelang.OpGe:
		if l.t == forcelang.TInt && r.t == forcelang.TInt {
			return boolVal(relate(t.Op, l.i, r.i))
		}
		return boolVal(relate(t.Op, l.asReal(), r.asReal()))
	default:
		panic(forcert.Errorf(t.Pos(), "unhandled operator %s", t.Op))
	}
}

// relate is one relation with Go's operators, which on a REAL NaN make
// every relation but .NE. false, as IEEE and Fortran do.
func relate[T int64 | float64](op forcelang.BinOp, a, b T) bool {
	switch op {
	case forcelang.OpEq:
		return a == b
	case forcelang.OpNe:
		return a != b
	case forcelang.OpLt:
		return a < b
	case forcelang.OpLe:
		return a <= b
	case forcelang.OpGt:
		return a > b
	default:
		return a >= b
	}
}

func (pr *proc) evalIntrinsic(t *forcelang.Intrinsic, f *tframe) value {
	args := make([]value, len(t.Args))
	for i, a := range t.Args {
		args[i] = pr.eval(a, f)
	}
	switch t.Name {
	case "ABS":
		if args[0].t == forcelang.TInt {
			if args[0].i < 0 {
				return intVal(-args[0].i)
			}
			return args[0]
		}
		return realVal(math.Abs(args[0].r))
	case "SQRT":
		x := args[0].asReal()
		if x < 0 {
			panic(&forcert.Err{Line: t.Pos(), Kind: forcert.SqrtNegative, X: x})
		}
		return realVal(math.Sqrt(x))
	case "INT":
		if args[0].t == forcelang.TInt {
			return args[0]
		}
		return intVal(int64(args[0].asReal()))
	case "NINT":
		return intVal(int64(math.Round(args[0].asReal())))
	case "REAL":
		return realVal(args[0].asReal())
	case "MOD":
		if args[0].t == forcelang.TInt && args[1].t == forcelang.TInt {
			if args[1].i == 0 {
				panic(&forcert.Err{Line: t.Pos(), Kind: forcert.ModZero})
			}
			return intVal(args[0].i % args[1].i)
		}
		return realVal(math.Mod(args[0].asReal(), args[1].asReal()))
	case "MIN", "MAX":
		allInt := true
		for _, a := range args {
			if a.t != forcelang.TInt {
				allInt = false
			}
		}
		if allInt {
			best := args[0].i
			for _, a := range args[1:] {
				if (t.Name == "MIN" && a.i < best) || (t.Name == "MAX" && a.i > best) {
					best = a.i
				}
			}
			return intVal(best)
		}
		best := args[0].asReal()
		for _, a := range args[1:] {
			x := a.asReal()
			if (t.Name == "MIN" && x < best) || (t.Name == "MAX" && x > best) {
				best = x
			}
		}
		return realVal(best)
	default:
		panic(forcert.Errorf(t.Pos(), "unknown intrinsic %s", t.Name))
	}
}
