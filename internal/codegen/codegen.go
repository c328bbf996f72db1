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
// them — deal, grant, folded accumulators, fused regions, ridden Barriers,
// how a reduction's fold is stored — arrives as a field of the nodes
// internal/plan lowers a statement list to (plan.Target.Next); this
// package holds no legality code of its own.  Nor does it resolve a name, infer a
// type or define a run-time check: what a name is bound to and what type
// an expression has are read off the checked tree (forcelang.Symbol,
// Expr.Type), and the emitted program imports internal/forcert — the
// checks, their error text, the intrinsics, the atomic accumulate and the
// Print formatter the interpreter tiers call too.
package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Options configures generation.  None of it changes the code of the
// program: the generated main takes -np and the four runtime flags
// (core.VariantFlags) on its command line, and the five values below are
// only what those flags default to.
type Options struct {
	// Package is the generated package name (default "main").
	Package string
	// DefaultNP is the default of the generated main's -np (default 4).
	DefaultNP int
	// Selfsched is the default of -selfsched, the discipline of Selfsched
	// DO loops and selfscheduled Pcase; the zero value is the paper's
	// lock-based selfscheduling (sched.SelfLock).
	Selfsched sched.Kind
	// Reduce is the default of -reduce, the strategy executing global
	// reductions (GSUM and friends); the zero value is reduce.PrivateSlots,
	// reduce.Critical the paper's critical-section baseline.
	Reduce reduce.Kind
	// Barrier is the default of -barrier; the zero value is the paper's
	// two-lock relay.
	Barrier barrier.Kind
	// Askfor is the default of -askfor; the zero value is the engine's
	// one task stack per process.
	Askfor engine.PoolKind
}

// Generate translates prog into gofmt-formatted Go source.
func Generate(prog *forcelang.Program, opts Options) ([]byte, error) {
	src, _, err := Lower(prog, opts)
	return src, err
}

// Lower is Generate plus the plan it emitted from: every node's lines as
// plan.Node.Narrate renders them, the lines the interpreter's chunk tier
// hands Config.FuseLog for the same program, in the same order.
func Lower(prog *forcelang.Program, opts Options) (src []byte, decisions []string, err error) {
	if opts.Package == "" {
		opts.Package = "main"
	}
	if opts.DefaultNP <= 0 {
		opts.DefaultNP = 4
	}
	g := &generator{prog: prog, opts: opts, tg: plan.Target{NsPerUnit: nativeNsPerUnit, NsPerBlockUnit: nativeNsPerUnit, Level: plan.Fused, Prog: prog}}
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

// nativeNsPerUnit is what one unit of plan's static body cost takes in
// the emitted Go (an element reference, an operator or a store is about
// one instruction-level nanosecond there).
const nativeNsPerUnit = 1

type generator struct {
	prog *forcelang.Program
	opts Options
	tg   plan.Target // this back end as the planner sees it
	b    strings.Builder
	ind  int

	// Inside a planned DOALL body: folds maps each accumulator scalar the
	// span folds to its span-local partial.  Nil everywhere else.
	folds map[string]string
	// In a span form (doall.go): the code reading its index and elements.
	spanIndex map[*forcelang.Symbol]string
	spanElems map[*forcelang.Ref]string
	// decisions collects the rendering of every node (Lower).
	decisions []string
	// Whether a unit referenced internal/asyncvar (an asynchronous
	// variable) or internal/reduce (a closing collective that reduces):
	// the two runtime packages only some programs import.
	usesAsyncvar, usesReduce bool
}

func (g *generator) p(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() (string, error) {
	// The units first: what they reference decides the import list.
	g.sharedStruct()
	if err := g.mainFunc(); err != nil {
		return "", err
	}
	for _, sub := range g.prog.Subs {
		if err := g.subFunc(sub); err != nil {
			return "", err
		}
	}
	units := g.b.String()
	g.b.Reset()
	g.p("// Code generated by forcec from Force program %s; DO NOT EDIT.", g.prog.Name)
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p("import (")
	g.ind++
	g.p(`"flag"`)
	g.p(`"fmt"`)
	g.p(`"math"`)
	g.p(`"os"`)
	g.p(`"unsafe"`)
	g.p("")
	if g.usesAsyncvar {
		g.p(`"repro/internal/asyncvar"`)
	}
	g.p(`"repro/internal/core"`)
	g.p(`"repro/internal/forcert"`)
	if g.usesReduce {
		g.p(`"repro/internal/reduce"`)
	}
	g.p(`"repro/internal/sched"`)
	g.ind--
	g.p(")")
	g.p("")
	g.p("// Not every program computes, prints or loops.")
	g.p("var _ = math.Inf")
	g.p("var _ = forcert.Println")
	g.p("var _ sched.Range")
	g.p("")
	g.p("// An INTEGER cell must be one 64-bit word: forcert.Word views it as one.")
	g.p("const _ = unsafe.Sizeof(int(0)) - 8")
	g.p("")
	return g.b.String() + units, nil
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

// fieldName qualifies a shared declaration with its unit.
func fieldName(unit, name string) string {
	if unit == "" {
		return name
	}
	return unit + "_" + name
}

// units lists every unit's scope, the main program's first.
func (g *generator) units() []*forcelang.Scope {
	out := []*forcelang.Scope{g.prog.Scope}
	for _, sub := range g.prog.Subs {
		out = append(out, sub.Scope)
	}
	return out
}

// sharedStruct emits the shared environment's type: every unit's shared
// arrays and scalars plus async cells.  Parameters alias caller storage
// and NP is the force's own, so neither gets a field.
func (g *generator) sharedStruct() {
	g.p("// zzShared is the Force shared environment: shared and async")
	g.p("// variables of every program unit, COMMON-like.")
	g.p("type zzShared struct {")
	g.ind++
	for _, scope := range g.units() {
		for _, d := range scope.Own() {
			field, typ := fieldName(d.Unit, d.Name), goType(d.Type)
			switch {
			case d.Role != forcelang.RoleNone:
			case d.Storage == forcelang.SharedArray:
				g.p("%s []%s // dims %v", field, typ, d.Dims)
			case d.Storage == forcelang.SharedScalar:
				g.p("%s %s", field, typ)
			case d.Storage == forcelang.AsyncVar && len(d.Dims) == 1:
				g.usesAsyncvar = true
				g.p("%s *asyncvar.Array[%s] // %d full/empty cells", field, typ, d.Dims[0])
			case d.Storage == forcelang.AsyncVar:
				g.usesAsyncvar = true
				g.p("%s asyncvar.V[%s]", field, typ)
			}
		}
	}
	g.ind--
	g.p("}")
	g.p("")
}

// sharedInit emits the allocation of the shared environment, in main.
func (g *generator) sharedInit() {
	g.p("shr := &zzShared{}")
	g.p("_ = shr")
	for _, scope := range g.units() {
		for _, d := range scope.Own() {
			typ := goType(d.Type)
			switch {
			case d.Storage == forcelang.SharedArray:
				g.p("%s = make([]%s, %d)", symCode(d), typ, d.Size())
			case d.Storage == forcelang.AsyncVar && len(d.Dims) == 1:
				g.p("%s = core.NewAsyncArray[%s](f, %d)", symCode(d), typ, d.Dims[0])
			case d.Storage == forcelang.AsyncVar:
				g.p("%s = core.NewAsync[%s](f)", symCode(d), typ)
			}
		}
	}
}

func (g *generator) mainFunc() error {
	g.p("func main() {")
	g.ind++
	g.p(`np := flag.Int("np", %d, "number of force processes")`, g.opts.DefaultNP)
	// The four runtime flags, with what this program was generated under
	// as their defaults: the same declarations forcerun parses, so the
	// binary runs any configuration the interpreter tiers do.
	baked := ""
	for _, arg := range (core.Variants{Selfsched: g.opts.Selfsched, Reduce: g.opts.Reduce,
		Barrier: g.opts.Barrier, Askfor: g.opts.Askfor}).Args() {
		baked += fmt.Sprintf(", %q", arg)
	}
	g.p("variants := core.VariantFlags(flag.CommandLine%s)", baked)
	g.p("flag.Parse()")
	g.p("v, err := variants()")
	g.p("if err != nil {")
	g.p("\tfmt.Fprintln(os.Stderr, \"force:\", err)")
	g.p("\tos.Exit(2)")
	g.p("}")
	g.p("f := core.New(*np, core.WithVariants(v))")
	g.p("defer f.Close()")
	// A failure in any process is re-panicked here by core.Run; report it
	// exactly as the interpreter tiers do.
	g.p("defer func() { forcert.Report(recover()) }()")
	g.sharedInit()
	g.p("f.Run(func(p *core.Proc) {")
	g.ind++
	g.privates(g.prog.Scope)
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

// privates declares the ident variable and the unit's private variables
// as locals, with blank uses so unreferenced declarations stay legal Go.
func (g *generator) privates(scope *forcelang.Scope) {
	for _, d := range scope.Own() {
		switch {
		case d.Role == forcelang.RoleIdent:
			g.p("%s := p.ID()", d.Name)
		case d.Storage == forcelang.PrivateArray:
			g.p("%s := make([]%s, %d)", d.Name, goType(d.Type), d.Size())
		case d.Storage == forcelang.PrivateScalar:
			g.p("var %s %s", d.Name, goType(d.Type))
		default:
			continue
		}
		g.p("_ = %s", d.Name)
	}
}

func (g *generator) subFunc(sub *forcelang.Subroutine) error {
	params := make([]string, 0, len(sub.Params)+2)
	params = append(params, "p *core.Proc", "shr *zzShared")
	for _, d := range sub.Scope.Params() {
		if len(d.Dims) > 0 {
			params = append(params, fmt.Sprintf("%s []%s", d.Name, goType(d.Type)))
		} else {
			params = append(params, fmt.Sprintf("%s *%s", d.Name, goType(d.Type)))
		}
	}
	g.p("// force_%s is the Force subroutine %s, executed by all processes.", sub.Name, sub.Name)
	g.p("func force_%s(%s) {", sub.Name, strings.Join(params, ", "))
	g.ind++
	g.privates(sub.Scope)
	if err := g.stmts(sub.Body); err != nil {
		return err
	}
	g.ind--
	g.p("}")
	g.p("")
	return nil
}

// --- statement generation ---------------------------------------------

// stmts emits a statement list: internal/plan lowers it step by step
// (Target.Next) and each node is emitted as it says — a Loop or a Region
// through doall.go, any other statement through stmt.
func (g *generator) stmts(list []forcelang.Stmt) error {
	for i := 0; i < len(list); {
		nd, n := g.tg.Next(list, i)
		nd.Narrate(func(line string) { g.decisions = append(g.decisions, line) })
		var err error
		switch {
		case nd.Stmt != nil:
			err = g.stmt(nd.Stmt)
		case nd.Loop.Do != nil:
			err = g.loop(nd.Loop)
		default:
			err = g.region(nd.Region)
		}
		if err != nil {
			return err
		}
		i += n
	}
	return nil
}

func (g *generator) stmt(st forcelang.Stmt) error {
	switch t := st.(type) {
	case *forcelang.Assign:
		if acc, ok := plan.MatchAccum(t); ok {
			return g.accumulate(t, acc)
		}
		lhs, _, err := g.lvalue(&t.Target)
		if err != nil {
			return err
		}
		rhs, err := g.expr(t.Expr)
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
		g.p("for zzI, zzStep, zzN := forcert.Do(%s, %s, %s); zzN > 0; zzI, zzN = zzI+zzStep, zzN-1 {", from, to, step)
		g.ind++
		// Poison checked every core.PoisonEvery trips, as in the
		// interpreter: a peer's failure unwinds a long sequential loop.
		g.p("if zzN%%core.PoisonEvery == 0 {")
		g.p("\tp.Check()")
		g.p("}")
		g.p("%s = zzI", symCode(t.VarSym))
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
		seed, err := g.expr(t.Seed)
		if err != nil {
			return err
		}
		g.p("p.Askfor([]any{%s}, func(zzTask any, zzPut func(any)) {", seed)
		g.ind++
		g.p("%s = zzTask.(int)", symCode(t.VarSym))
		if err := g.stmts(t.Body); err != nil {
			return err
		}
		g.ind--
		g.p("})")
		return nil
	case *forcelang.PutStmt:
		task, err := g.expr(t.Expr)
		if err != nil {
			return err
		}
		g.p("zzPut(%s)", task)
		return nil
	case *forcelang.ProduceStmt:
		rhs, err := g.expr(t.Expr)
		if err != nil {
			return err
		}
		cell, err := g.asyncCellExpr(t.Sym, t.Sub, t.Pos())
		if err != nil {
			return err
		}
		g.p("%s.Produce(%s)", cell, rhs)
		return nil
	case *forcelang.ConsumeStmt:
		return g.asyncInto(t.Sym, t.Sub, &t.Target, "Consume", t.Pos())
	case *forcelang.CopyStmt:
		return g.asyncInto(t.Sym, t.Sub, &t.Target, "Copy", t.Pos())
	case *forcelang.VoidStmt:
		cell, err := g.asyncCellExpr(t.Sym, t.Sub, t.Pos())
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
		g.p("forcert.Println(%s)", strings.Join(args, ", "))
		return nil
	case *forcelang.CallStmt:
		args := []string{"p", "shr"}
		for i, param := range t.Callee.Scope.Params() {
			code, err := g.argRef(&t.Args[i], len(param.Dims) > 0)
			if err != nil {
				return err
			}
			args = append(args, code)
		}
		g.p("force_%s(%s)", t.Callee.Name, strings.Join(args, ", "))
		return nil
	default:
		return fmt.Errorf("codegen: unhandled statement %T at line %d", st, st.Pos())
	}
}

func (g *generator) asyncInto(d *forcelang.Symbol, sub forcelang.Expr, target *forcelang.Ref, method string, line int) error {
	lhs, lt, err := g.lvalue(target)
	if err != nil {
		return err
	}
	cell, err := g.asyncCellExpr(d, sub, line)
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
func (g *generator) asyncCellExpr(d *forcelang.Symbol, sub forcelang.Expr, line int) (string, error) {
	field := symCode(d)
	if sub == nil {
		return field, nil
	}
	code, err := g.expr(sub)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s.At(forcert.AsyncIdx(%d, %q, %s, %d))", field, line, d.Name, code, d.Dims[0]), nil
}

func (g *generator) loopBounds(from, to, step forcelang.Expr) (string, string, string, error) {
	f, err := g.expr(from)
	if err != nil {
		return "", "", "", err
	}
	t, err := g.expr(to)
	if err != nil {
		return "", "", "", err
	}
	s := "1"
	if step != nil {
		if s, err = g.expr(step); err != nil {
			return "", "", "", err
		}
		// An explicit step gets the zero check, reported at the loop
		// header's line.
		s = fmt.Sprintf("forcert.Step(%d, %s)", from.Pos(), s)
	}
	return f, t, s, nil
}

// --- expression generation ---------------------------------------------

// symCode is how generated code reaches the storage a symbol denotes: NP
// is the force's size, a scalar parameter a dereferenced Go pointer, a
// shared or async variable a field of the shared environment qualified
// by its owning unit, everything else (privates, the ident variable,
// array parameters) a Go local of the same name.
func symCode(d *forcelang.Symbol) string {
	switch {
	case d.Role == forcelang.RoleNP:
		return "p.NP()"
	case d.Storage == forcelang.Parameter && len(d.Dims) == 0:
		return "(*" + d.Name + ")"
	case d.Storage == forcelang.Parameter, !d.Class.IsShared():
		return d.Name
	default:
		return "shr." + fieldName(d.Unit, d.Name)
	}
}

// lvalue emits the Go lvalue for a reference and returns its Force type.
func (g *generator) lvalue(r *forcelang.Ref) (string, forcelang.Type, error) {
	if code, ok := g.spanElems[r]; ok {
		return code, r.Sym.Type, nil
	} else if code, ok := g.spanIndex[r.Sym]; ok {
		return code, r.Sym.Type, nil
	}
	base := symCode(r.Sym)
	if len(r.Subs) == 0 {
		return base, r.Sym.Type, nil
	}
	idx, err := g.indexExpr(r, base)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%s[%s]", base, idx), r.Sym.Type, nil
}

// indexExpr flattens 1-based Fortran subscripts to a 0-based offset,
// bounds-checked by the shared run-time checks.  1-D arrays check against
// the backing slice (so a parameter reports the caller array's extent, as
// the interpreter does); 2-D arrays check each subscript against the
// declared dims before row-major flattening.
func (g *generator) indexExpr(r *forcelang.Ref, base string) (string, error) {
	d := r.Sym
	if len(r.Subs) != len(d.Dims) {
		return "", fmt.Errorf("codegen: %s subscript arity", r.Name)
	}
	parts := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		code, err := g.expr(s)
		if err != nil {
			return "", err
		}
		parts[i] = code
	}
	if len(parts) == 1 {
		return fmt.Sprintf("forcert.Idx1(%d, %q, %s, len(%s))", r.Pos(), r.Name, parts[0], base), nil
	}
	return fmt.Sprintf("forcert.Idx2(%d, %q, %s, %s, %d, %d)", r.Pos(), r.Name, parts[0], parts[1], d.Dims[0], d.Dims[1]), nil
}

// argRef emits a call argument: whole arrays pass as slices, everything
// else as a pointer to the cell.
func (g *generator) argRef(r *forcelang.Ref, wantArray bool) (string, error) {
	base := symCode(r.Sym)
	switch {
	case wantArray:
		return base, nil
	case len(r.Subs) > 0:
		idx, err := g.indexExpr(r, base)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("&%s[%s]", base, idx), nil
	case r.Sym.Storage == forcelang.Parameter:
		// Re-passing a by-reference parameter: forward the pointer.
		return r.Name, nil
	}
	return "&" + base, nil
}

// coerceCode wraps code of Force type from in a conversion to type to:
// the lowering of the REAL and INT intrinsics, and of the store a Consume
// or Copy makes into a target of the other type.  Real-to-integer goes
// through forcert.Int: Fortran truncation toward zero at run time
// (int(2.9) on an untyped constant would not even compile).
func coerceCode(code string, from, to forcelang.Type) string {
	if from == to {
		return code
	}
	switch to {
	case forcelang.TInt:
		return fmt.Sprintf("forcert.Int(%s)", code)
	case forcelang.TReal:
		return fmt.Sprintf("float64(%s)", code)
	default:
		return code
	}
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
		return forcert.FormatReal(t.Value), nil
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
			if t.Type() == forcelang.TReal && goConst(t.X) && !nonzeroReal(t.X) {
				x = fmt.Sprintf("forcert.Real(%s)", x) // -0.0 is +0 to Go
			}
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
	want := t.L.Type() // the checker gives both operands one type
	l, err := g.expr(t.L)
	if err != nil {
		return "", err
	}
	r, err := g.expr(t.R)
	if err != nil {
		return "", err
	}
	if t.Op == forcelang.OpDiv && want == forcelang.TInt {
		// Checked integer division, and a legal spelling for constant
		// operands (Go rejects a constant 1 / 0 at compile time).
		return fmt.Sprintf("forcert.Div(%d, %s, %s)", t.Pos(), l, r), nil
	}
	if t.Op <= forcelang.OpDiv && goConst(t.L) && goConst(t.R) {
		switch want {
		case forcelang.TReal:
			l = fmt.Sprintf("forcert.Real(%s)", l)
		case forcelang.TInt:
			l = fmt.Sprintf("forcert.Int(%s)", l)
		}
	}
	return fmt.Sprintf("(%s %s %s)", l, goOps[t.Op], r), nil
}

// goConst reports whether the Go spelling of e is a constant expression.
// Go folds those exactly at compile time, not in IEEE or int64
// arithmetic, so an operator whose operands are all constants takes its
// first one through forcert.Real or forcert.Int and is computed at run
// time, as the interpreters compute it: 0.0 / 0.0 is a NaN, -1.0 * 0.0 a
// -0.0, 0.1 + 0.2 rounds, 9223372036854775807 + 1 wraps.
func goConst(e forcelang.Expr) bool {
	switch t := e.(type) {
	case *forcelang.IntLit, *forcelang.RealLit:
		return true
	case *forcelang.Un:
		if t.Neg && t.Type() == forcelang.TReal {
			return nonzeroReal(t.X) // negating one is exact; anything else is wrapped
		}
		return goConst(t.X)
	case *forcelang.Bin: // arithmetic is wrapped, INTEGER / is forcert.Div
		return t.Op > forcelang.OpDiv && goConst(t.L) && goConst(t.R)
	case *forcelang.Intrinsic:
		return t.Name == "REAL" && goConst(t.Args[0])
	}
	return false
}

// nonzeroReal reports whether e is a nonzero REAL literal.
func nonzeroReal(e forcelang.Expr) bool {
	l, ok := e.(*forcelang.RealLit)
	return ok && l.Value != 0
}

func (g *generator) intrinsic(t *forcelang.Intrinsic) (string, error) {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		var err error
		if parts[i], err = g.expr(a); err != nil {
			return "", err
		}
	}
	switch t.Name {
	case "SQRT":
		return fmt.Sprintf("forcert.Sqrt(%d, %s)", t.Pos(), parts[0]), nil
	case "REAL", "INT":
		return coerceCode(parts[0], t.Args[0].Type(), t.Type()), nil
	case "NINT":
		return fmt.Sprintf("forcert.Nint(%s)", parts[0]), nil
	case "ABS":
		return fmt.Sprintf("forcert.Abs(%s)", parts[0]), nil
	case "MOD":
		if t.Type() == forcelang.TInt {
			return fmt.Sprintf("forcert.ModInt(%d, %s, %s)", t.Pos(), parts[0], parts[1]), nil
		}
		return fmt.Sprintf("forcert.ModReal(%s, %s)", parts[0], parts[1]), nil
	case "MIN":
		return fmt.Sprintf("forcert.Min(%s)", strings.Join(parts, ", ")), nil
	case "MAX":
		return fmt.Sprintf("forcert.Max(%s)", strings.Join(parts, ", ")), nil
	default:
		return "", fmt.Errorf("codegen: unknown intrinsic %s", t.Name)
	}
}
