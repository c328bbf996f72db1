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
// holds no legality code of its own.  Nor does it resolve a name, infer a
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
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/sched"
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
	// lock-based selfscheduling (sched.SelfLock).
	Selfsched sched.Kind
	// Reduce is the strategy the generated force executes global
	// reductions (GSUM and friends) with; the zero value selects the
	// runtime default (reduce.PrivateSlots), reduce.Critical restores
	// the paper's critical-section baseline.
	Reduce reduce.Kind
	// Chunk, when positive, bakes a core.WithChunk span size into the
	// generated force — sched.Config.ChunkSize for the Chunk
	// selfscheduling discipline.
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
	g.p(`"math"`)
	g.p(`"unsafe"`)
	g.p("")
	g.p(`"repro/internal/asyncvar"`)
	g.p(`"repro/internal/barrier"`)
	g.p(`"repro/internal/core"`)
	g.p(`"repro/internal/engine"`)
	g.p(`"repro/internal/forcert"`)
	g.p(`"repro/internal/reduce"`)
	g.p(`"repro/internal/sched"`)
	g.ind--
	g.p(")")
	g.p("")
	g.p("// Imports are unconditional; not every program prints or loops.")
	g.p("var _ = math.Inf")
	g.p("var _ = forcert.Println")
	g.p("var _ sched.Range")
	g.p("var _ asyncvar.Impl")
	g.p("var _ reduce.Kind")
	g.p("var _ barrier.Kind")
	g.p("var _ engine.PoolKind")
	g.p("")
	g.p("// An INTEGER cell must be one 64-bit word: forcert.Word views it as one.")
	g.p("const _ = unsafe.Sizeof(int(0)) - 8")
	g.p("")
	g.sharedStruct()
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
				g.p("%s *asyncvar.Array[%s] // %d full/empty cells", field, typ, d.Dims[0])
			case d.Storage == forcelang.AsyncVar:
				g.p("%s core.AsyncCell[%s]", field, typ)
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

// stmts emits a statement list.  A run of DOALLs the shared proofs fuse
// is emitted as one region; everything else statement by statement.
func (g *generator) stmts(list []forcelang.Stmt) error {
	slots := g.opts.Reduce == reduce.PrivateSlots
	for i := 0; i < len(list); {
		if _, isPD := list[i].(*forcelang.ParDo); isPD {
			if reg := plan.Fuse(list, i, slots, g.logf); reg != nil {
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
		if acc, ok := plan.MatchAccum(t); ok {
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
		g.p("for zzI, zzTo, zzStep := %s, %s, %s; (zzStep > 0 && zzI <= zzTo) || (zzStep < 0 && zzI >= zzTo); zzI += zzStep {", from, to, step)
		g.ind++
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
	case *forcelang.ParDo:
		pl := plan.DoAll(t, g.logf)
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
		task, err := g.exprAs(t.Expr, forcelang.TInt)
		if err != nil {
			return err
		}
		g.p("zzPut(%s)", task)
		return nil
	case *forcelang.ReduceStmt:
		return g.greduce(t)
	case *forcelang.ProduceStmt:
		rhs, err := g.exprAs(t.Expr, t.Sym.Type)
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
	switch t.Target.Sym.Storage {
	case forcelang.SharedScalar:
		g.p("core.%sTo(p, %s, &%s)", fn, operand, lhs)
	case forcelang.SharedArray, forcelang.Parameter:
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
	code, err := g.exprAs(sub, forcelang.TInt)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s.At(forcert.AsyncIdx(%d, %q, %s, %d))", field, line, d.Name, code, d.Dims[0]), nil
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
		code, err := g.exprAs(s, forcelang.TInt)
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

// coerceCode wraps code of Force type from in a conversion to type to.
// Real-to-integer goes through forcert.Int: Fortran truncation toward
// zero at run time (int(2.9) on an untyped constant would not even
// compile).
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

// exprAs emits an expression coerced to the given Force type.
func (g *generator) exprAs(e forcelang.Expr, want forcelang.Type) (string, error) {
	code, err := g.expr(e)
	if err != nil {
		return "", err
	}
	return coerceCode(code, e.Type(), want), nil
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
	lt, rt := t.L.Type(), t.R.Type()
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
		// Checked integer division, and a legal spelling for constant
		// operands (Go rejects a constant 1 / 0 at compile time).
		return fmt.Sprintf("forcert.Div(%d, %s, %s)", t.Pos(), l, r), nil
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
		return fmt.Sprintf("forcert.Sqrt(%d, %s)", t.Pos(), a), nil
	case "REAL":
		return argAs(0, forcelang.TReal)
	case "INT":
		return argAs(0, forcelang.TInt)
	case "NINT":
		a, err := argAs(0, forcelang.TReal)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("forcert.Nint(%s)", a), nil
	case "ABS", "MIN", "MAX", "MOD":
		rt := t.Type()
		parts := make([]string, len(t.Args))
		for i := range t.Args {
			var err error
			if parts[i], err = argAs(i, rt); err != nil {
				return "", err
			}
		}
		switch t.Name {
		case "ABS":
			return fmt.Sprintf("forcert.Abs(%s)", parts[0]), nil
		case "MOD":
			if rt == forcelang.TInt {
				return fmt.Sprintf("forcert.ModInt(%d, %s, %s)", t.Pos(), parts[0], parts[1]), nil
			}
			return fmt.Sprintf("forcert.ModReal(%s, %s)", parts[0], parts[1]), nil
		default:
			fn := "forcert.Min"
			if t.Name == "MAX" {
				fn = "forcert.Max"
			}
			return fmt.Sprintf("%s(%s)", fn, strings.Join(parts, ", ")), nil
		}
	default:
		return "", fmt.Errorf("codegen: unknown intrinsic %s", t.Name)
	}
}
