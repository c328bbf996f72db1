// Package codegen translates parsed Force programs into Go source that
// runs on the public runtime (internal/core) — the role the paper's
// pipeline delegates to "the manufacturer provided Fortran compiler"
// after macro expansion (§4.3).  Where maclib.Expand reproduces the
// *textual* expansion faithfully, this package is the working compiler
// back end: its output builds with the ordinary Go toolchain and behaves
// like the interpreted program.
//
// Mapping: shared and async declarations (of every program unit,
// COMMON-like) become fields of a generated shared-environment struct;
// private declarations become per-process locals; barriers, critical
// sections and Pcase map to the corresponding core.Proc methods;
// Forcesubs become Go functions taking the process handle, the shared
// environment, and by-reference parameters.  Like the original Force, the
// generated program's shared accesses are exactly as synchronized as the
// source program was.
//
// DOALLs are emitted as span loops (doall.go) against the runtime entry
// points the interpreter's chunk tier uses, and every decision about
// them — block or cyclic deal, folded accumulators, fused regions — is
// read from internal/plan, the proofs both back ends share; this package
// holds no legality code of its own.
package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/shm"
)

// Options configures generation.
type Options struct {
	// Package is the generated package name (default "main").
	Package string
	// DefaultNP is the force size baked into the generated main's flag
	// default (default 4).
	DefaultNP int
	// Selfsched is the discipline Selfsched DO loops (and selfscheduled
	// Pcase) are generated against; the zero value selects the paper's
	// lock-based selfscheduling (sched.SelfLock).  sched.Stealing emits
	// code drawing from the engine's work-stealing deques.
	Selfsched sched.Kind
	// Reduce is the strategy the generated force executes global
	// reductions (GSUM and friends) with; the zero value selects the
	// runtime default (reduce.PrivateSlots), reduce.Critical restores
	// the paper's critical-section baseline.
	Reduce reduce.Kind
	// Chunk, when positive, bakes a core.WithChunk span size into the
	// generated force — sched.Config.ChunkSize for the Chunk and
	// Stealing selfscheduling disciplines.
	Chunk int
	// Barrier selects the barrier algorithm the generated force is built
	// with; the zero value is the paper's two-lock relay (the runtime
	// default).
	Barrier barrier.Kind
	// Askfor selects the Askfor pool discipline; the zero value is the
	// engine's work-stealing deques (the runtime default).
	Askfor engine.PoolKind
}

// Generate translates prog into gofmt-formatted Go source.
func Generate(prog *forcelang.Program, opts Options) ([]byte, error) {
	src, _, err := Lower(prog, opts)
	return src, err
}

// Lower is Generate plus the plan it emitted from: one line per DOALL
// decision (how a Presched DO is dealt and why, what fused, what
// declined), the same lines in the same order the interpreter's chunk
// tier narrates through Config.FuseLog for the same program.
func Lower(prog *forcelang.Program, opts Options) (src []byte, decisions []string, err error) {
	if opts.Package == "" {
		opts.Package = "main"
	}
	if opts.DefaultNP <= 0 {
		opts.DefaultNP = 4
	}
	if opts.Selfsched == 0 {
		opts.Selfsched = sched.SelfLock
	}
	g := &generator{prog: prog, opts: opts}
	raw, err := g.run()
	if err != nil {
		return nil, nil, err
	}
	out, err := format.Source([]byte(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("codegen: generated source does not format: %w\n--- source ---\n%s", err, raw)
	}
	return out, g.decisions, nil
}

type generator struct {
	prog *forcelang.Program
	opts Options
	b    strings.Builder
	ind  int

	scope *forcelang.Scope // scope of the unit being generated
	unit  string           // "" for main
	pu    plan.Unit        // the same unit, as the shared DOALL proofs see it

	// Inside a planned DOALL body: folds maps each accumulator scalar the
	// span folds to its span-local partial.  Nil everywhere else.
	folds map[string]string
	// decisions collects the plan narration (Lower).
	decisions []string
}

func (g *generator) logf(format string, args ...any) {
	g.decisions = append(g.decisions, fmt.Sprintf(format, args...))
}

func (g *generator) p(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() (string, error) {
	g.p("// Code generated by forcec from Force program %s; DO NOT EDIT.", g.prog.Name)
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p("import (")
	g.ind++
	g.p(`"flag"`)
	g.p(`"fmt"`)
	g.p(`"math"`)
	g.p(`"os"`)
	g.p(`"strconv"`)
	g.p(`"strings"`)
	g.p(`"sync"`)
	g.p(`"sync/atomic"`)
	g.p(`"unsafe"`)
	g.p("")
	g.p(`"repro/internal/asyncvar"`)
	g.p(`"repro/internal/barrier"`)
	g.p(`"repro/internal/core"`)
	g.p(`"repro/internal/engine"`)
	g.p(`"repro/internal/reduce"`)
	g.p(`"repro/internal/sched"`)
	g.ind--
	g.p(")")
	g.p("")
	g.p("// Imports are unconditional; not every program prints or loops.")
	g.p("var _ = fmt.Println")
	g.p("var _ sched.Range")
	g.p("var _ asyncvar.Impl")
	g.p("var _ reduce.Kind")
	g.p("var _ barrier.Kind")
	g.p("var _ engine.PoolKind")
	g.p("")
	g.runtimeHelpers()
	if err := g.sharedStruct(); err != nil {
		return "", err
	}
	if err := g.mainFunc(); err != nil {
		return "", err
	}
	for _, sub := range g.prog.Subs {
		if err := g.subFunc(sub); err != nil {
			return "", err
		}
	}
	return g.b.String(), nil
}

// runtimeHelpers emits the zz* support functions that give generated
// programs the interpreter's exact runtime semantics: checked integer
// division, MOD, SQRT, subscripts, loop steps and async subscripts all
// panic a zzErr whose message is byte-identical to the interpreter's
// "force runtime: line N: ..." errors, and zzPrintln reproduces the
// interpreter's Fortran-flavored print formatting (REALs always show a
// decimal point, logicals print T/F).  The driver's recover turns a
// zzErr into the same stderr line and exit code the interpreter tiers
// report through forcerun.
//
// A failed check panics its site and operands as they are and the
// message is formatted only when the driver reports it (zzErr.Error), so
// a check in a span loop costs a compare: each helper stays inside the
// Go inliner's budget, which no helper that calls out of line to format
// does once it checks two subscripts (TestCheckHelpersInline is the
// guard).
func (g *generator) runtimeHelpers() {
	g.b.WriteString(`// zzErr is a Force runtime error carried by panic through the SPMD
// machinery; the poison protocol re-panics the first failure in the
// driver, whose recover reports it exactly as the interpreter does.  It
// holds what the failed check saw; kind says which operands msg formats.
type zzErr struct {
	line int
	kind zzErrKind
	msg  string
	name string  // zzSubscript: the array
	s, n int     // zzSubscript: the subscript and the extent
	x    float64 // zzOperand: the offending operand
}

type zzErrKind int

const (
	zzLiteral   zzErrKind = iota // msg is the message
	zzSubscript                  // msg formats name, s, n
	zzOperand                    // msg formats x
)

func (e zzErr) Error() string {
	msg := e.msg
	switch e.kind {
	case zzSubscript:
		msg = fmt.Sprintf(msg, e.name, e.s, e.n)
	case zzOperand:
		msg = fmt.Sprintf(msg, e.x)
	}
	return fmt.Sprintf("force runtime: line %d: %s", e.line, msg)
}

// zzInt truncates toward zero at run time (a plain int() conversion of
// an untyped constant would be a compile error for non-integral values).
func zzInt(x float64) int { return int(x) }

func zzDiv(line, a, b int) int {
	if b == 0 {
		panic(zzErr{line: line, msg: "integer division by zero"})
	}
	return a / b
}

func zzMod(line, a, b int) int {
	if b == 0 {
		panic(zzErr{line: line, msg: "MOD by zero"})
	}
	return a % b
}

func zzSqrt(line int, x float64) float64 {
	if x < 0 {
		panic(zzErr{line: line, kind: zzOperand, msg: "SQRT of negative value %g", x: x})
	}
	return math.Sqrt(x)
}

func zzIdx1(line int, name string, s, n int) int {
	if s < 1 || s > n {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 1 of %s out of range: %d not in [1,%d]", name: name, s: s, n: n})
	}
	return s - 1
}

func zzIdx2(line int, name string, s1, s2, d1, d2 int) int {
	if s1 < 1 || s1 > d1 {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 1 of %s out of range: %d not in [1,%d]", name: name, s: s1, n: d1})
	}
	if s2 < 1 || s2 > d2 {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 2 of %s out of range: %d not in [1,%d]", name: name, s: s2, n: d2})
	}
	return (s1-1)*d2 + s2 - 1
}

func zzChkStep(line, s int) int {
	if s == 0 {
		panic(zzErr{line: line, msg: "loop step is zero"})
	}
	return s
}

func zzAsyncIdx(line int, name string, s, n int) int {
	if s < 1 || s > n {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript of async array %s out of range: %d not in [1,%d]", name: name, s: s, n: n})
	}
	return s - 1
}

// The shared accumulate (S = S + e, S = MAX(S, e), S = MIN(S, e) on a
// shared scalar) is one indivisible update: the helpers below view the
// int or float64 cell as the 64-bit word it is.  Extrema replace the
// cell only on the strict compare the intrinsic performs, so a NaN never
// wins and a span's untouched partial (the fold identity) stores nothing.
const _ = unsafe.Sizeof(int(0)) - 8 // an int cell must be one 64-bit word

func zzAddInt(p *int, d int) {
	if d != 0 {
		atomic.AddInt64((*int64)(unsafe.Pointer(p)), int64(d))
	}
}

func zzMaxInt(p *int, x int) {
	w := (*int64)(unsafe.Pointer(p))
	for old := atomic.LoadInt64(w); int64(x) > old && !atomic.CompareAndSwapInt64(w, old, int64(x)); old = atomic.LoadInt64(w) {
	}
}

func zzMinInt(p *int, x int) {
	w := (*int64)(unsafe.Pointer(p))
	for old := atomic.LoadInt64(w); int64(x) < old && !atomic.CompareAndSwapInt64(w, old, int64(x)); old = atomic.LoadInt64(w) {
	}
}

func zzMaxReal(p *float64, x float64) {
	w := (*uint64)(unsafe.Pointer(p))
	for old := atomic.LoadUint64(w); x > math.Float64frombits(old) && !atomic.CompareAndSwapUint64(w, old, math.Float64bits(x)); old = atomic.LoadUint64(w) {
	}
}

func zzMinReal(p *float64, x float64) {
	w := (*uint64)(unsafe.Pointer(p))
	for old := atomic.LoadUint64(w); x < math.Float64frombits(old) && !atomic.CompareAndSwapUint64(w, old, math.Float64bits(x)); old = atomic.LoadUint64(w) {
	}
}

// zzStoreInt and zzStoreReal publish a fused join's fold into a shared
// cell: every process stores the one value they all hold, atomically, so
// the concurrent identical stores are not a data race.
func zzStoreInt(p *int, v int) { atomic.StoreInt64((*int64)(unsafe.Pointer(p)), int64(v)) }

func zzStoreReal(p *float64, v float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), math.Float64bits(v))
}

// zzReal formats a REAL the way the interpreter does: %g, with a ".0"
// appended when the result would otherwise read as an integer.
func zzReal(r float64) string {
	s := strconv.FormatFloat(r, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(r, 0) && !math.IsNaN(r) {
		s += ".0"
	}
	return s
}

var zzOutMu sync.Mutex

// zzPrintln prints one line with the interpreter's formatting: items
// space-joined, REALs through zzReal, logicals as T/F.
func zzPrintln(items ...any) {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch v := it.(type) {
		case string:
			b.WriteString(v)
		case int:
			b.WriteString(strconv.Itoa(v))
		case float64:
			b.WriteString(zzReal(v))
		case bool:
			if v {
				b.WriteByte('T')
			} else {
				b.WriteByte('F')
			}
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	b.WriteByte('\n')
	zzOutMu.Lock()
	os.Stdout.WriteString(b.String())
	zzOutMu.Unlock()
}
`)
	g.p("")
}

// goType maps a Force type to Go.
func goType(t forcelang.Type) string {
	switch t {
	case forcelang.TInt:
		return "int"
	case forcelang.TReal:
		return "float64"
	default:
		return "bool"
	}
}

// isParam reports whether name is in the parameter list.
func isParam(name string, params []string) bool {
	for _, p := range params {
		if p == name {
			return true
		}
	}
	return false
}

// fieldName qualifies a shared declaration with its unit.
func fieldName(unit, name string) string {
	if unit == "" {
		return name
	}
	return unit + "_" + name
}

// sharedStruct emits the shared environment: every unit's shared arrays
// and scalars plus async cells.
func (g *generator) sharedStruct() error {
	g.p("// zzShared is the Force shared environment: shared and async")
	g.p("// variables of every program unit, COMMON-like.")
	g.p("type zzShared struct {")
	g.ind++
	emit := func(unit string, decls []forcelang.Decl, params []string) {
		for _, d := range decls {
			if isParam(d.Name, params) {
				// Parameters alias caller storage; they get no
				// storage of their own.
				continue
			}
			switch d.Class {
			case shm.Shared:
				if len(d.Dims) > 0 {
					g.p("%s []%s // dims %v", fieldName(unit, d.Name), goType(d.Type), d.Dims)
				} else {
					g.p("%s %s", fieldName(unit, d.Name), goType(d.Type))
				}
			case shm.Async:
				if len(d.Dims) == 1 {
					g.p("%s *asyncvar.Array[%s] // %d full/empty cells", fieldName(unit, d.Name), goType(d.Type), d.Dims[0])
				} else {
					g.p("%s core.AsyncCell[%s]", fieldName(unit, d.Name), goType(d.Type))
				}
			}
		}
	}
	emit("", g.prog.Decls, nil)
	for _, sub := range g.prog.Subs {
		emit(sub.Name, sub.Decls, sub.Params)
	}
	g.ind--
	g.p("}")
	g.p("")
	g.p("func zzNewShared(f *core.Force) *zzShared {")
	g.ind++
	g.p("s := &zzShared{}")
	initUnit := func(unit string, decls []forcelang.Decl, params []string) {
		for _, d := range decls {
			if isParam(d.Name, params) {
				continue
			}
			switch d.Class {
			case shm.Shared:
				if len(d.Dims) > 0 {
					g.p("s.%s = make([]%s, %d)", fieldName(unit, d.Name), goType(d.Type), d.Size())
				}
			case shm.Async:
				if len(d.Dims) == 1 {
					g.p("s.%s = core.NewAsyncArray[%s](f, %d)", fieldName(unit, d.Name), goType(d.Type), d.Dims[0])
				} else {
					g.p("s.%s = core.NewAsync[%s](f)", fieldName(unit, d.Name), goType(d.Type))
				}
			}
		}
	}
	initUnit("", g.prog.Decls, nil)
	for _, sub := range g.prog.Subs {
		initUnit(sub.Name, sub.Decls, sub.Params)
	}
	g.p("return s")
	g.ind--
	g.p("}")
	g.p("")
	return nil
}

func (g *generator) mainFunc() error {
	scope, err := forcelang.GlobalScope(g.prog)
	if err != nil {
		return err
	}
	g.scope, g.unit = scope, ""
	g.pu = plan.Unit{Prog: g.prog, Scope: scope}
	g.p("func main() {")
	g.ind++
	g.p(`np := flag.Int("np", %d, "number of force processes")`, g.opts.DefaultNP)
	g.p("flag.Parse()")
	// The Pcase and Reduce options keep the compiled program on the same
	// disciplines interp uses for the same -selfsched/-reduce choices.
	opts := fmt.Sprintf("core.WithPcaseSched(sched.%s), core.WithReduce(reduce.%s)",
		g.opts.Selfsched.GoName(), g.opts.Reduce.GoName())
	if g.opts.Chunk > 0 {
		opts += fmt.Sprintf(", core.WithChunk(%d)", g.opts.Chunk)
	}
	if g.opts.Barrier != barrier.TwoLock {
		opts += fmt.Sprintf(", core.WithBarrier(barrier.%s)", g.opts.Barrier.GoName())
	}
	if g.opts.Askfor != engine.StealingPool {
		opts += fmt.Sprintf(", core.WithAskfor(engine.%s)", g.opts.Askfor.GoName())
	}
	g.p("f := core.New(*np, %s)", opts)
	g.p("defer f.Close()")
	// Generated-driver recovery: a runtime failure in any process
	// poisons the force, the engine unwinds the peers, and core.Run
	// re-panics the first failure here — report it exactly as the
	// interpreter tiers do (the bare "force runtime: line N: ..."
	// message on stderr, exit code 1) instead of dying with a
	// goroutine dump.
	g.p("defer func() {")
	g.ind++
	g.p("if r := recover(); r != nil {")
	g.ind++
	g.p("if e, ok := r.(zzErr); ok {")
	g.ind++
	g.p("fmt.Fprintln(os.Stderr, e.Error())")
	g.ind--
	g.p("} else {")
	g.ind++
	g.p(`fmt.Fprintln(os.Stderr, "force runtime error:", r)`)
	g.ind--
	g.p("}")
	g.p("os.Exit(1)")
	g.ind--
	g.p("}")
	g.ind--
	g.p("}()")
	g.p("shr := zzNewShared(f)")
	g.p("_ = shr")
	g.p("f.Run(func(p *core.Proc) {")
	g.ind++
	g.p("%s := p.ID()", g.prog.MeVar)
	g.p("_ = %s", g.prog.MeVar)
	if err := g.privates(g.prog.Decls); err != nil {
		return err
	}
	if err := g.stmts(g.prog.Body); err != nil {
		return err
	}
	g.ind--
	g.p("})")
	g.ind--
	g.p("}")
	g.p("")
	return nil
}

// privates declares the unit's private variables as locals, with blank
// uses so unreferenced declarations stay legal Go.
func (g *generator) privates(decls []forcelang.Decl) error {
	for _, d := range decls {
		if d.Class != shm.Private {
			continue
		}
		if len(d.Dims) > 0 {
			g.p("%s := make([]%s, %d)", d.Name, goType(d.Type), d.Size())
		} else {
			g.p("var %s %s", d.Name, goType(d.Type))
		}
		g.p("_ = %s", d.Name)
	}
	return nil
}

func (g *generator) subFunc(sub *forcelang.Subroutine) error {
	scope, err := forcelang.SubScope(g.prog, sub)
	if err != nil {
		return err
	}
	g.scope, g.unit = scope, sub.Name
	g.pu = plan.Unit{Prog: g.prog, Scope: scope, Sub: sub}
	params := make([]string, 0, len(sub.Params)+2)
	params = append(params, "p *core.Proc", "shr *zzShared")
	paramSet := map[string]bool{}
	for _, name := range sub.Params {
		paramSet[name] = true
		d, _ := scope.Lookup(name)
		if len(d.Dims) > 0 {
			params = append(params, fmt.Sprintf("%s []%s", name, goType(d.Type)))
		} else {
			params = append(params, fmt.Sprintf("%s *%s", name, goType(d.Type)))
		}
	}
	g.p("// force_%s is the Force subroutine %s, executed by all processes.", sub.Name, sub.Name)
	g.p("func force_%s(%s) {", sub.Name, strings.Join(params, ", "))
	g.ind++
	g.p("%s := p.ID()", g.prog.MeVar)
	g.p("_ = %s", g.prog.MeVar)
	var locals []forcelang.Decl
	for _, d := range sub.Decls {
		if !paramSet[d.Name] {
			locals = append(locals, d)
		}
	}
	if err := g.privates(locals); err != nil {
		return err
	}
	if err := g.stmts(sub.Body); err != nil {
		return err
	}
	g.ind--
	g.p("}")
	g.p("")
	return nil
}

// --- statement generation ---------------------------------------------

// stmts emits a statement list.  A run of DOALLs the shared proofs fuse
// is emitted as one region; everything else statement by statement.
func (g *generator) stmts(list []forcelang.Stmt) error {
	slots := g.opts.Reduce == reduce.PrivateSlots
	for i := 0; i < len(list); {
		if _, isPD := list[i].(*forcelang.ParDo); isPD {
			if reg := g.pu.Fuse(list, i, slots, g.logf); reg != nil {
				if err := g.region(reg); err != nil {
					return err
				}
				i += reg.Len()
				continue
			}
		}
		if err := g.stmt(list[i]); err != nil {
			return err
		}
		i++
	}
	return nil
}

func (g *generator) stmt(st forcelang.Stmt) error {
	switch t := st.(type) {
	case *forcelang.Assign:
		if acc, ok := g.pu.MatchAccum(t); ok {
			return g.accumulate(t, acc)
		}
		lhs, lt, err := g.lvalue(&t.Target)
		if err != nil {
			return err
		}
		rhs, err := g.exprAs(t.Expr, lt)
		if err != nil {
			return err
		}
		g.p("%s = %s", lhs, rhs)
		return nil
	case *forcelang.If:
		cond, err := g.expr(t.Cond)
		if err != nil {
			return err
		}
		g.p("if %s {", cond)
		g.ind++
		if err := g.stmts(t.Then); err != nil {
			return err
		}
		g.ind--
		if len(t.Else) > 0 {
			g.p("} else {")
			g.ind++
			if err := g.stmts(t.Else); err != nil {
				return err
			}
			g.ind--
		}
		g.p("}")
		return nil
	case *forcelang.SeqDo:
		from, to, step, err := g.loopBounds(t.From, t.To, t.Step)
		if err != nil {
			return err
		}
		lv, _, err := g.lvalue(&forcelang.Ref{Name: t.Var})
		if err != nil {
			return err
		}
		g.p("for zzI, zzTo, zzStep := %s, %s, %s; (zzStep > 0 && zzI <= zzTo) || (zzStep < 0 && zzI >= zzTo); zzI += zzStep {", from, to, step)
		g.ind++
		g.p("%s = zzI", lv)
		if err := g.stmts(t.Body); err != nil {
			return err
		}
		g.ind--
		g.p("}")
		return nil
	case *forcelang.WhileDo:
		cond, err := g.expr(t.Cond)
		if err != nil {
			return err
		}
		g.p("for %s {", cond)
		g.ind++
		// Per-iteration poison check, as in the interpreter: a peer's
		// failure unwinds a process spinning in a convergence loop.
		g.p("p.Check()")
		if err := g.stmts(t.Body); err != nil {
			return err
		}
		g.ind--
		g.p("}")
		return nil
	case *forcelang.ParDo:
		pl := g.pu.DoAll(t, g.logf)
		return g.doAll(t, pl, false, pl.Block())
	case *forcelang.BarrierStmt:
		if len(t.Section) == 0 {
			g.p("p.Barrier()")
			return nil
		}
		g.p("p.BarrierSection(func() {")
		g.ind++
		if err := g.stmts(t.Section); err != nil {
			return err
		}
		g.ind--
		g.p("})")
		return nil
	case *forcelang.CriticalStmt:
		g.p("p.Critical(%q, func() {", t.Name)
		g.ind++
		if err := g.stmts(t.Body); err != nil {
			return err
		}
		g.ind--
		g.p("})")
		return nil
	case *forcelang.PcaseStmt:
		call := "p.Pcase"
		if t.Selfsched {
			call = "p.SelfschedPcase"
		}
		g.p("%s(", call)
		g.ind++
		for _, b := range t.Blocks {
			if b.Cond != nil {
				cond, err := g.expr(b.Cond)
				if err != nil {
					return err
				}
				g.p("core.CaseIf(func() bool { return %s }, func() {", cond)
			} else {
				g.p("core.Case(func() {")
			}
			g.ind++
			if err := g.stmts(b.Body); err != nil {
				return err
			}
			g.ind--
			g.p("}),")
		}
		g.ind--
		g.p(")")
		return nil
	case *forcelang.AskforStmt:
		seed, err := g.exprAs(t.Seed, forcelang.TInt)
		if err != nil {
			return err
		}
		lv, _, err := g.lvalue(&forcelang.Ref{Name: t.Var})
		if err != nil {
			return err
		}
		g.p("p.Askfor([]any{%s}, func(zzTask any, zzPut func(any)) {", seed)
		g.ind++
		g.p("%s = zzTask.(int)", lv)
		if err := g.stmts(t.Body); err != nil {
			return err
		}
		g.ind--
		g.p("})")
		return nil
	case *forcelang.PutStmt:
		task, err := g.exprAs(t.Expr, forcelang.TInt)
		if err != nil {
			return err
		}
		g.p("zzPut(%s)", task)
		return nil
	case *forcelang.ReduceStmt:
		return g.greduce(t)
	case *forcelang.ProduceStmt:
		d, _ := g.scope.Lookup(t.Var)
		rhs, err := g.exprAs(t.Expr, d.Type)
		if err != nil {
			return err
		}
		cell, err := g.asyncCellExpr(t.Var, t.Sub, t.Pos())
		if err != nil {
			return err
		}
		g.p("%s.Produce(%s)", cell, rhs)
		return nil
	case *forcelang.ConsumeStmt:
		return g.asyncInto(t.Var, t.Sub, &t.Target, "Consume", t.Pos())
	case *forcelang.CopyStmt:
		return g.asyncInto(t.Var, t.Sub, &t.Target, "Copy", t.Pos())
	case *forcelang.VoidStmt:
		cell, err := g.asyncCellExpr(t.Var, t.Sub, t.Pos())
		if err != nil {
			return err
		}
		g.p("%s.Void()", cell)
		return nil
	case *forcelang.PrintStmt:
		args := make([]string, len(t.Items))
		for i, item := range t.Items {
			if s, ok := item.(*forcelang.StrLit); ok {
				args[i] = fmt.Sprintf("%q", s.Value)
				continue
			}
			code, err := g.expr(item)
			if err != nil {
				return err
			}
			args[i] = code
		}
		g.p("zzPrintln(%s)", strings.Join(args, ", "))
		return nil
	case *forcelang.CallStmt:
		sub := g.prog.Sub(t.Name)
		subScope, err := forcelang.SubScope(g.prog, sub)
		if err != nil {
			return err
		}
		args := []string{"p", "shr"}
		for i := range t.Args {
			pd, _ := subScope.Lookup(sub.Params[i])
			code, err := g.argRef(&t.Args[i], len(pd.Dims) > 0)
			if err != nil {
				return err
			}
			args = append(args, code)
		}
		g.p("force_%s(%s)", sub.Name, strings.Join(args, ", "))
		return nil
	default:
		return fmt.Errorf("codegen: unhandled statement %T at line %d", st, st.Pos())
	}
}

// gopFuncs maps the dialect operators to the core entry points.
var gopFuncs = map[forcelang.GOp]string{
	forcelang.GSum: "Gsum", forcelang.GProd: "Gprod", forcelang.GMax: "Gmax",
	forcelang.GMin: "Gmin", forcelang.GAnd: "Gand", forcelang.GOr: "Gor",
}

// greduce emits a global-reduction statement.  The operand is coerced to
// the target's type so the combination happens in the target's
// arithmetic (matching the interpreter).  Three storage shapes:
//
//   - a shared scalar uses the *To form — the combined value is stored
//     exactly once, in the completing process, before the force is
//     released, because a per-process store of the same value into
//     shared memory is still a data race;
//   - a private target assigns the returned value in every process
//     (each process owns its own cell);
//   - a by-reference parameter (which may alias a caller's shared OR
//     private cell) and a shared array element (whose subscript may
//     vary per process, so each process's element must receive the
//     value, as in the interpreter) assign in every process inside a
//     runtime critical section: the stores are serialized, so aliased
//     shared cells see race-free identical writes and per-process cells
//     each get their copy.
func (g *generator) greduce(t *forcelang.ReduceStmt) error {
	lhs, lt, err := g.lvalue(&t.Target)
	if err != nil {
		return err
	}
	operand, err := g.exprAs(t.Expr, lt)
	if err != nil {
		return err
	}
	fn := gopFuncs[t.Op]
	d, _ := g.scope.Lookup(t.Target.Name)
	isParam := g.isParamName(t.Target.Name)
	switch {
	case d.Class == shm.Shared && !isParam && len(t.Target.Subs) == 0:
		g.p("core.%sTo(p, %s, &%s)", fn, operand, lhs)
	case d.Class == shm.Shared || isParam:
		g.p("{")
		g.ind++
		g.p("zzRed := core.%s(p, %s)", fn, operand)
		g.p(`p.Critical("ZZGRED", func() { %s = zzRed })`, lhs)
		g.ind--
		g.p("}")
	default:
		g.p("%s = core.%s(p, %s)", lhs, fn, operand)
	}
	return nil
}

// isParamName reports whether name is a parameter of the unit being
// generated (parameters alias caller storage, possibly private).
func (g *generator) isParamName(name string) bool {
	if g.unit == "" {
		return false
	}
	return isParam(name, g.prog.Sub(g.unit).Params)
}

func (g *generator) asyncInto(name string, sub forcelang.Expr, target *forcelang.Ref, method string, line int) error {
	lhs, lt, err := g.lvalue(target)
	if err != nil {
		return err
	}
	d, _ := g.scope.Lookup(name)
	cell, err := g.asyncCellExpr(name, sub, line)
	if err != nil {
		return err
	}
	call := fmt.Sprintf("%s.%s()", cell, method)
	g.p("%s = %s", lhs, coerceCode(call, d.Type, lt))
	return nil
}

// asyncCellExpr emits the expression addressing an async cell: the shared
// field for scalars, a bounds-checked At() lookup (1-based to 0-based)
// for arrays, reporting out-of-range subscripts at the statement's line
// exactly as the interpreter does.
func (g *generator) asyncCellExpr(name string, sub forcelang.Expr, line int) (string, error) {
	field := "shr." + g.asyncField(name)
	if sub == nil {
		return field, nil
	}
	code, err := g.exprAs(sub, forcelang.TInt)
	if err != nil {
		return "", err
	}
	d, _ := g.scope.Lookup(name)
	return fmt.Sprintf("%s.At(zzAsyncIdx(%d, %q, %s, %d))", field, line, name, code, d.Dims[0]), nil
}

// asyncField resolves an async variable's shared-struct field, preferring
// the current unit's declaration.
func (g *generator) asyncField(name string) string {
	if g.unit != "" {
		for _, d := range g.prog.Sub(g.unit).Decls {
			if d.Name == name && d.Class == shm.Async {
				return fieldName(g.unit, name)
			}
		}
	}
	return fieldName("", name)
}

func (g *generator) loopBounds(from, to, step forcelang.Expr) (string, string, string, error) {
	f, err := g.exprAs(from, forcelang.TInt)
	if err != nil {
		return "", "", "", err
	}
	t, err := g.exprAs(to, forcelang.TInt)
	if err != nil {
		return "", "", "", err
	}
	s := "1"
	if step != nil {
		if s, err = g.exprAs(step, forcelang.TInt); err != nil {
			return "", "", "", err
		}
		// An explicit step gets the interpreter's zero check, reported
		// at the loop header's line.
		s = fmt.Sprintf("zzChkStep(%d, %s)", from.Pos(), s)
	}
	return f, t, s, nil
}

// --- expression generation ---------------------------------------------

// symbol classifies how a name is reached in generated code.
func (g *generator) symbol(name string) (code string, d forcelang.Decl, err error) {
	d, ok := g.scope.Lookup(name)
	if !ok {
		return "", d, fmt.Errorf("codegen: undeclared %s", name)
	}
	if name == g.prog.NPVar {
		return "p.NP()", d, nil
	}
	if name == g.prog.MeVar {
		return g.prog.MeVar, d, nil
	}
	if g.unit != "" {
		// Subroutine: parameters are Go parameters; unit-shared locals
		// are qualified fields; private locals are plain.
		for _, pn := range g.prog.Sub(g.unit).Params {
			if pn == name {
				if len(d.Dims) > 0 {
					return name, d, nil
				}
				return "(*" + name + ")", d, nil
			}
		}
		for _, ld := range g.prog.Sub(g.unit).Decls {
			if ld.Name == name && ld.Class == shm.Shared {
				return "shr." + fieldName(g.unit, name), d, nil
			}
		}
	}
	if d.Class == shm.Shared {
		return "shr." + fieldName("", name), d, nil
	}
	return name, d, nil
}

// lvalue emits the Go lvalue for a reference and returns its Force type.
func (g *generator) lvalue(r *forcelang.Ref) (string, forcelang.Type, error) {
	base, d, err := g.symbol(r.Name)
	if err != nil {
		return "", 0, err
	}
	if len(r.Subs) == 0 {
		return base, d.Type, nil
	}
	idx, err := g.indexExpr(r, d, base)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%s[%s]", base, idx), d.Type, nil
}

// indexExpr flattens 1-based Fortran subscripts to a 0-based offset,
// bounds-checked with the interpreter's exact error message.  1-D
// arrays check against the backing slice (so a parameter reports the
// caller array's extent, as the interpreter does); 2-D arrays check
// each subscript against the declared dims before row-major flattening.
func (g *generator) indexExpr(r *forcelang.Ref, d forcelang.Decl, base string) (string, error) {
	if len(r.Subs) != len(d.Dims) {
		return "", fmt.Errorf("codegen: %s subscript arity", r.Name)
	}
	parts := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		code, err := g.exprAs(s, forcelang.TInt)
		if err != nil {
			return "", err
		}
		parts[i] = code
	}
	if len(parts) == 1 {
		return fmt.Sprintf("zzIdx1(%d, %q, %s, len(%s))", r.Pos(), r.Name, parts[0], base), nil
	}
	// Row-major over declared dims, matching the interpreter.
	return fmt.Sprintf("zzIdx2(%d, %q, %s, %s, %d, %d)", r.Pos(), r.Name, parts[0], parts[1], d.Dims[0], d.Dims[1]), nil
}

// argRef emits a call argument: whole arrays pass as slices, everything
// else as a pointer to the cell.
func (g *generator) argRef(r *forcelang.Ref, wantArray bool) (string, error) {
	base, d, err := g.symbol(r.Name)
	if err != nil {
		return "", err
	}
	if wantArray {
		return base, nil
	}
	if len(r.Subs) > 0 {
		idx, err := g.indexExpr(r, d, base)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("&%s[%s]", base, idx), nil
	}
	if strings.HasPrefix(base, "(*") {
		// Re-passing a by-reference parameter: forward the pointer.
		return r.Name, nil
	}
	return "&" + base, nil
}

// typeOf consults the checker's inference.
func (g *generator) typeOf(e forcelang.Expr) (forcelang.Type, error) {
	return forcelang.TypeOf(g.prog, g.scope, e)
}

// coerceCode wraps code of Force type from in a conversion to type to.
// Real-to-integer goes through zzInt: Fortran truncation toward zero at
// run time (int(2.9) on an untyped constant would not even compile).
func coerceCode(code string, from, to forcelang.Type) string {
	if from == to {
		return code
	}
	switch to {
	case forcelang.TInt:
		return fmt.Sprintf("zzInt(%s)", code)
	case forcelang.TReal:
		return fmt.Sprintf("float64(%s)", code)
	default:
		return code
	}
}

// exprAs emits an expression coerced to the given Force type.
func (g *generator) exprAs(e forcelang.Expr, want forcelang.Type) (string, error) {
	code, err := g.expr(e)
	if err != nil {
		return "", err
	}
	have, err := g.typeOf(e)
	if err != nil {
		return "", err
	}
	return coerceCode(code, have, want), nil
}

var goOps = map[forcelang.BinOp]string{
	forcelang.OpAdd: "+", forcelang.OpSub: "-", forcelang.OpMul: "*", forcelang.OpDiv: "/",
	forcelang.OpEq: "==", forcelang.OpNe: "!=", forcelang.OpLt: "<", forcelang.OpLe: "<=",
	forcelang.OpGt: ">", forcelang.OpGe: ">=", forcelang.OpAnd: "&&", forcelang.OpOr: "||",
}

// expr emits an expression in its natural Force type.
func (g *generator) expr(e forcelang.Expr) (string, error) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return fmt.Sprintf("%d", t.Value), nil
	case *forcelang.RealLit:
		s := fmt.Sprintf("%g", t.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	case *forcelang.BoolLit:
		if t.Value {
			return "true", nil
		}
		return "false", nil
	case *forcelang.StrLit:
		return fmt.Sprintf("%q", t.Value), nil
	case *forcelang.Ref:
		code, _, err := g.lvalue(t)
		return code, err
	case *forcelang.Un:
		x, err := g.expr(t.X)
		if err != nil {
			return "", err
		}
		if t.Neg {
			return fmt.Sprintf("(-%s)", x), nil
		}
		return fmt.Sprintf("(!%s)", x), nil
	case *forcelang.Bin:
		return g.binExpr(t)
	case *forcelang.Intrinsic:
		return g.intrinsic(t)
	default:
		return "", fmt.Errorf("codegen: unhandled expression %T", e)
	}
}

func (g *generator) binExpr(t *forcelang.Bin) (string, error) {
	lt, err := g.typeOf(t.L)
	if err != nil {
		return "", err
	}
	rt, err := g.typeOf(t.R)
	if err != nil {
		return "", err
	}
	// Mixed numeric operands promote to real, exactly as the checker
	// types them.
	want := lt
	if lt != rt && lt != forcelang.TLogical {
		want = forcelang.TReal
	}
	l, err := g.exprAs(t.L, want)
	if err != nil {
		return "", err
	}
	r, err := g.exprAs(t.R, want)
	if err != nil {
		return "", err
	}
	if t.Op == forcelang.OpDiv && want == forcelang.TInt {
		// Checked integer division: the interpreter's divide-by-zero
		// error, and a legal spelling for constant operands (Go rejects
		// a constant 1 / 0 at compile time).
		return fmt.Sprintf("zzDiv(%d, %s, %s)", t.Pos(), l, r), nil
	}
	return fmt.Sprintf("(%s %s %s)", l, goOps[t.Op], r), nil
}

func (g *generator) intrinsic(t *forcelang.Intrinsic) (string, error) {
	argAs := func(i int, typ forcelang.Type) (string, error) { return g.exprAs(t.Args[i], typ) }
	switch t.Name {
	case "SQRT":
		a, err := argAs(0, forcelang.TReal)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("zzSqrt(%d, %s)", t.Pos(), a), nil
	case "REAL":
		return argAs(0, forcelang.TReal)
	case "INT":
		return argAs(0, forcelang.TInt)
	case "NINT":
		a, err := argAs(0, forcelang.TReal)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("core.Nint(%s)", a), nil
	case "ABS", "MIN", "MAX", "MOD":
		rt, err := g.typeOf(t)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(t.Args))
		for i := range t.Args {
			if parts[i], err = argAs(i, rt); err != nil {
				return "", err
			}
		}
		switch t.Name {
		case "ABS":
			return fmt.Sprintf("core.Abs(%s)", parts[0]), nil
		case "MOD":
			if rt == forcelang.TInt {
				// Checked modulus: the interpreter's MOD-by-zero error.
				return fmt.Sprintf("zzMod(%d, %s, %s)", t.Pos(), parts[0], parts[1]), nil
			}
			return fmt.Sprintf("core.Mod(%s, %s)", parts[0], parts[1]), nil
		default:
			fn := "core.Min"
			if t.Name == "MAX" {
				fn = "core.Max"
			}
			return fmt.Sprintf("%s(%s)", fn, strings.Join(parts, ", ")), nil
		}
	default:
		return "", fmt.Errorf("codegen: unknown intrinsic %s", t.Name)
	}
}
