package codegen

// DOALL emission.  Every Presched/Selfsched DO, one- or two-index, is a
// span loop against the chunk-granular runtime entry points (a Selfsched
// DO through DoAllGranted, with the grant its plan sized):
//
//	{
//		zzR := sched.Range{Start: …, Last: …, Incr: …}
//		p.DoAllChunked(kind, zzR, func(zzLo, zzHi, zzStride int) {
//			zzC := 0
//			for zzK := zzLo; zzK < zzHi; zzK += zzStride {
//				I = zzR.Start + zzK*zzR.Incr
//				<body>
//				if zzC++; zzC == 256 { zzC = 0; p.Check() }
//			}
//		})
//	}
//
// so an iteration costs its body, not a scheduler call and two closure
// dispatches, and a peer's failure still unwinds a process within
// core.PoisonEvery (the 256) iterations of a long span.  What
// internal/plan proves about the body selects the refinements, none
// decided here: a mapping-insensitive Presched body is dealt in
// contiguous blocks (the index left where the cyclic deal would leave
// it); a folded accumulator becomes a span-local
// partial with one atomic fold at the end of the span; a selfscheduled
// loop claims the plan's grant of ordinals at a time; a fused region's
// members run through DoAllChunkedOpen, closed by one FusedJoin; and a
// Barrier statement directly behind a construct is emitted as the section
// of its closing collective.  A body with no plan (it blocks, calls out or
// prints) takes the loop as written above, with the cyclic deal or one
// iteration per claim and nothing folded.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/plan"
)

// doAll emits one DOALL as a span loop.  pl is the body's plan (nil: no
// fact proven); open leaves the construct open (no exit barrier — the
// caller closes it with a FusedJoin or JoinSection); block deals a
// prescheduled loop in contiguous blocks.
func (g *generator) doAll(t *forcelang.ParDo, pl *plan.Plan, open, block bool) error {
	from, to, step, err := g.loopBounds(t.From, t.To, t.Step)
	if err != nil {
		return err
	}
	lv := symCode(t.VarSym)
	kind := "p.Selfsched()" // the force's -selfsched, a run-time choice
	switch {
	case t.Sched != forcelang.Presched:
		block = false
	case block:
		kind = "sched.PreschedBlock"
	default:
		kind = "sched.PreschedCyclic"
	}
	// entry is the runtime call up to its range argument; the prescheduled
	// deals ignore the grant.
	var entry string
	switch {
	case open:
		entry = fmt.Sprintf("p.DoAllChunkedOpen(%s, %d, ", kind, pl.Grant())
	case t.Sched != forcelang.Presched:
		entry = fmt.Sprintf("p.DoAllGranted(%s, %d, ", kind, pl.Grant())
	default:
		entry = fmt.Sprintf("p.DoAllChunked(%s, ", kind)
	}
	// vars are the loop variable(s); index the expression list giving
	// their values at ordinal zzK; count the size of the (flattened)
	// ordinal space.
	vars := lv
	index := "zzR.Start + zzK*zzR.Incr"
	count := "zzR.Count()"
	g.p("{")
	g.ind++
	g.p("zzR := sched.Range{Start: %s, Last: %s, Incr: %s}", from, to, step)
	if t.Inner == nil {
		g.p("%szzR, func(zzLo, zzHi, zzStride int) {", entry)
	} else {
		ifrom, ito, istep, err := g.loopBounds(t.Inner.From, t.Inner.To, t.Inner.Step)
		if err != nil {
			return err
		}
		ilv := symCode(t.Inner.VarSym)
		g.p("zzR2 := sched.Range{Start: %s, Last: %s, Incr: %s}", ifrom, ito, istep)
		g.p("zzN2 := zzR2.Count()")
		// Index pairs are the unit of distribution: one space of flat ordinals.
		g.p("%ssched.Seq(zzR.Count()*zzN2), func(zzLo, zzHi, zzStride int) {", entry)
		vars = lv + ", " + ilv
		index = "zzR.Index(zzK/zzN2), zzR2.Index(zzK%zzN2)"
		count = "zzR.Count()*zzN2"
	}
	g.ind++
	var accs []plan.AccRec
	if pl != nil {
		accs = pl.AccRecs
	}
	g.folds = map[string]string{}
	for _, rec := range accs {
		g.folds[rec.Sym.Name] = "zzAcc" + rec.Sym.Name
		g.p("zzAcc%s := %s", rec.Sym.Name, foldIdentity(rec))
	}
	g.p("zzC := 0")
	g.p("for zzK := zzLo; zzK < zzHi; zzK += zzStride {")
	g.ind++
	g.p("%s = %s", vars, index)
	if err := g.stmts(t.Body); err != nil {
		return err
	}
	g.p("if zzC++; zzC == %d {", core.PoisonEvery)
	g.ind++
	g.p("zzC = 0")
	g.p("p.Check()")
	g.ind--
	g.p("}")
	g.ind--
	g.p("}")
	g.folds = nil
	if block {
		// The loop variable's value after the loop must not depend on
		// the deal: leave what the cyclic deal would have left.
		g.p("zzK := sched.CyclicLast(p.ID(), p.NP(), %s)", count)
		g.p("%s = %s", vars, index)
	}
	for _, rec := range accs {
		g.p("%s(forcert.Word(&%s), zzAcc%s)", foldFunc(rec.Op, rec.Real), symCode(rec.Sym), rec.Sym.Name)
	}
	g.ind--
	g.p("})")
	g.ind--
	g.p("}")
	return nil
}

// foldIdentity is the value a span-local partial starts from: 0 for
// sums, the extremum no contribution can fail to beat otherwise — so a
// span that never runs the statement folds nothing into the cell.
func foldIdentity(rec plan.AccRec) string {
	switch {
	case rec.Op == plan.AccSum:
		return "0"
	case rec.Real && rec.Op == plan.AccMax:
		return "math.Inf(-1)"
	case rec.Real:
		return "math.Inf(1)"
	case rec.Op == plan.AccMax:
		return "math.MinInt"
	default:
		return "math.MaxInt"
	}
}

// foldFunc names the support function that folds a value into a shared
// cell's word as one atomic update.
func foldFunc(op plan.AccOp, real bool) string {
	typ := "Int"
	if real {
		typ = "Real"
	}
	switch op {
	case plan.AccSum:
		return "forcert.Add"
	case plan.AccMax:
		return "forcert.Max" + typ
	default:
		return "forcert.Min" + typ
	}
}

// accumulate emits one shared-accumulate statement (plan.MatchAccum;
// README, "Semantics: the shared accumulate"): an update of the span's
// partial when the enclosing plan folds the scalar, one atomic update of
// the cell everywhere else.  Extrema replace only on the strict compare
// MAX(S, e) / MIN(S, e) perform.
func (g *generator) accumulate(t *forcelang.Assign, acc plan.Accum) error {
	typ := forcelang.TInt
	if acc.Real {
		typ = forcelang.TReal
	}
	operand, err := g.exprAs(acc.Operand, typ)
	if err != nil {
		return err
	}
	if partial, folded := g.folds[t.Target.Name]; folded {
		switch acc.Op {
		case plan.AccSum:
			sign := "+"
			if acc.Negate {
				sign = "-"
			}
			g.p("%s %s= %s", partial, sign, operand)
		case plan.AccMax:
			g.p("if zzV := %s; zzV > %s {", operand, partial)
			g.p("\t%s = zzV", partial)
			g.p("}")
		default:
			g.p("if zzV := %s; zzV < %s {", operand, partial)
			g.p("\t%s = zzV", partial)
			g.p("}")
		}
		return nil
	}
	if acc.Negate {
		operand = "-(" + operand + ")"
	}
	g.p("%s(forcert.Word(&%s), %s)", foldFunc(acc.Op, acc.Real), symCode(t.Target.Sym), operand)
	return nil
}

// riddenDoAll emits one unfused DOALL whose exit synchronization runs the
// section of bar, the Barrier statement directly behind it (nil, or an
// empty section: the exit is the whole barrier).
func (g *generator) riddenDoAll(t *forcelang.ParDo, pl *plan.Plan, bar *forcelang.BarrierStmt) error {
	if bar == nil || len(bar.Section) == 0 {
		return g.doAll(t, pl, false, pl.Block())
	}
	if err := g.doAll(t, pl, true, pl.Block()); err != nil {
		return err
	}
	g.p("p.JoinSection(func() {")
	g.ind++
	if err := g.stmts(bar.Section); err != nil {
		return err
	}
	g.ind--
	g.p("})")
	return nil
}

// foldOps maps the reduction operators to the runtime's fold.
var foldOps = map[forcelang.GOp]string{
	forcelang.GSum: "reduce.Sum", forcelang.GProd: "reduce.Prod",
	forcelang.GMax: "reduce.Max", forcelang.GMin: "reduce.Min",
	forcelang.GAnd: "reduce.And", forcelang.GOr: "reduce.Or",
}

// region emits one closing collective and what it closes: every member of
// a fused region open (a reduction statement on its own is a region with no
// members), then the one join.  It is the only lowering of a ReduceStmt in
// the emitter.  The operand is coerced to the target's type so the
// combination happens in the target's arithmetic (matching the
// interpreter), and contributes to the join bit-encoded.  Three storage
// shapes:
//
//   - a shared scalar is stored exactly once, by the completing process
//     inside the join, before the force is released (a per-process store of
//     the same value into shared memory is still a data race) and before
//     the section of the Barrier statement riding the join runs, which may
//     overwrite it;
//   - a private target is assigned in every process (each owns its cell):
//     by the completing process before it runs the riding section, by the
//     others after their release;
//   - a by-reference parameter (which may alias a caller's shared OR
//     private cell) and a shared array element (whose subscript may vary
//     per process, so each process's element must receive the value, as in
//     the interpreter) — which no Barrier rides (plan.Target.Rider) —
//     assign in every process inside a runtime critical section: the
//     stores are serialized, so aliased shared cells see race-free
//     identical writes and per-process cells each get their copy.
func (g *generator) region(reg *plan.Region) error {
	for i, m := range reg.Members {
		if err := g.doAll(m, reg.Plans[i], true, reg.Block); err != nil {
			return err
		}
	}
	red := reg.Red
	if red == nil {
		return g.join("p.FusedClose(", reg.Rider)
	}
	g.usesReduce = true
	lhs, lt, err := g.lvalue(&red.Target)
	if err != nil {
		return err
	}
	operand, err := g.exprAs(red.Expr, lt)
	if err != nil {
		return err
	}
	// bits encodes the contribution, val decodes the fold zzOut.
	bits, val, numKind := "uint64("+operand+")", "int(zzOut)", "reduce.NumInt"
	once := fmt.Sprintf("forcert.Word(&%s).Store(zzOut)", lhs)
	switch lt {
	case forcelang.TReal:
		bits, val, numKind = "math.Float64bits("+operand+")", "math.Float64frombits(zzOut)", "reduce.NumReal"
	case forcelang.TLogical:
		bits, val = "forcert.Bit("+operand+")", "zzOut != 0"
		once = lhs + " = " + val
	}
	call := fmt.Sprintf("p.FusedJoin(%s, %s, %s, ", foldOps[red.Op], numKind, bits)
	if red.Target.Sym.Storage == forcelang.SharedScalar {
		return g.join(fmt.Sprintf("%sfunc(zzOut uint64) { %s }, ", call, once), reg.Rider)
	}
	g.p("{")
	g.ind++
	switch {
	case reg.Rider != nil && len(reg.Rider.Section) > 0:
		g.p("zzStored := false")
		err = g.join(fmt.Sprintf("zzOut := %sfunc(zzOut uint64) { zzStored, %s = true, %s }, ", call, lhs, val), reg.Rider)
		g.p("if !zzStored {")
		g.p("\t%s = %s", lhs, val)
		g.p("}")
	case red.Target.Sym.Storage == forcelang.SharedArray || red.Target.Sym.Storage == forcelang.Parameter:
		g.p("zzOut := %snil, nil)", call)
		g.p(`p.Critical("ZZGRED", func() { %s = %s })`, lhs, val)
	default:
		g.p("zzOut := %snil, nil)", call)
		g.p("%s = %s", lhs, val)
	}
	g.ind--
	g.p("}")
	return err
}

// join emits call — a FusedJoin or FusedClose call up to its last argument — completed
// by the section of bar, the Barrier statement riding the join (nil, or an
// empty section: the join is the whole barrier).
func (g *generator) join(call string, bar *forcelang.BarrierStmt) error {
	if bar == nil || len(bar.Section) == 0 {
		g.p("%snil)", call)
		return nil
	}
	g.p("%sfunc() {", call)
	g.ind++
	if err := g.stmts(bar.Section); err != nil {
		return err
	}
	g.ind--
	g.p("})")
	return nil
}
