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
// core.PoisonEvery (the 256) iterations of a long span.  The refinements
// are fields of the plan.Loop / plan.Region node being emitted, none
// decided here: the deal (blocks leave the index where the cyclic deal
// would), the grant of a selfscheduled loop, a folded accumulator as a
// span-local partial with one atomic fold at the end of the span, a
// region's members open (DoAllChunkedOpen) and closed by one FusedJoin or
// FusedClose, a riding Barrier as the section of the collective it rides.
// A body with no plan takes the loop as written above, nothing folded.
//
// A one-index, block-dealt DOALL with no step whose plan span-checks
// element references (plan.Loop.SpanChecked) runs that loop only for a
// span failing the chunk tier's end-point test, so the first fault in
// iteration order is still the one reported (spanForm):
//
//	zzF, zzL := zzR.Index(zzLo), zzR.Index(zzHi-1)
//	if zzStride == 1 && forcert.InSpan(1, zzF, zzF, zzL, 4096) && … {
//		zzO0 := zzF - 1 // A(I)'s offset at zzF, one per reference
//		for zzJ, zzN := 0, zzHi-zzLo; zzJ < zzN; zzJ += 256 {
//			zzM := min(zzN-zzJ, 256)
//			zzA0 := shr.A[zzO0+zzJ:][:zzM] // a view, if the stride is 1
//			for zzK := 0; zzK < zzM; zzK++ { // no bounds check in here
//				<body: A(I) as zzA0[zzK], I as (zzF + zzJ + zzK)>
//			}
//			p.Check()
//		}
//	} else { <the loop above> }

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/plan"
)

// dealKinds spells plan's deals as the scheduler's; a selfscheduled loop
// runs under the force's -selfsched, a run-time choice.
var dealKinds = [...]string{plan.Cyclic: "sched.PreschedCyclic", plan.Block: "sched.PreschedBlock", plan.Self: "p.Selfsched()"}

// doAll emits the span loop of one DOALL as its node says: against l.Plan
// (nil: no fact proven), dealt as l.Deal, without an exit barrier when
// l.Open (the caller emits what closes it).
func (g *generator) doAll(l plan.Loop) error {
	t, pl := l.Do, l.Plan
	from, to, step, err := g.loopBounds(t.From, t.To, t.Step)
	if err != nil {
		return err
	}
	lv := symCode(t.VarSym)
	kind := dealKinds[l.Deal]
	// entry is the runtime call up to its range argument; the prescheduled
	// deals ignore the grant.
	entry := fmt.Sprintf("p.DoAllChunked(%s, ", kind)
	switch {
	case l.Open:
		entry = fmt.Sprintf("p.DoAllChunkedOpen(%s, %d, ", kind, l.Grant)
	case l.Deal == plan.Self:
		entry = fmt.Sprintf("p.DoAllGranted(%s, %d, ", kind, l.Grant)
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
		g.p("%ssched.Seq(sched.Pairs(zzR.Count(), zzN2)), func(zzLo, zzHi, zzStride int) {", entry)
		vars = lv + ", " + ilv
		index = "zzR.Index(zzK/zzN2), zzR2.Index(zzK%zzN2)"
		count = "sched.Pairs(zzR.Count(), zzN2)"
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
	spanned, err := g.spanForm(l)
	if err != nil {
		return err
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
	if spanned {
		g.p("}")
	}
	g.folds = nil
	if l.Deal == plan.Block {
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

// spanForm opens the span form of l when it has one (the file comment),
// up to the else branch the caller's checked loop goes in.
func (g *generator) spanForm(l plan.Loop) (bool, error) {
	t := l.Do
	if l.Deal != plan.Block || t.Inner != nil || t.Step != nil || len(l.SpanChecked) == 0 {
		return false, nil
	}
	g.spanIndex, g.spanElems = map[*forcelang.Symbol]string{t.VarSym: "zzF"}, map[*forcelang.Ref]string{}
	var tests, offs, views []string
	for n, r := range l.SpanChecked {
		coef, _ := l.Plan.SpanCheck(r)
		off, k := "", int64(0)
		for d, sub := range r.Subs {
			at, err := g.expr(sub)
			if err != nil {
				return false, err
			}
			tests = append(tests, fmt.Sprintf("forcert.InSpan(%d, zzF, %s, zzL, %d)", coef[d], at, r.Sym.Dims[d]))
			if d > 0 {
				off = fmt.Sprintf("(%s)*%d + ", off, r.Sym.Dims[d])
			}
			off, k = off+at+" - 1", k*int64(r.Sym.Dims[d])+coef[d]
		}
		o, v := fmt.Sprintf("zzO%d", n), fmt.Sprintf("zzA%d", n)
		offs = append(offs, fmt.Sprintf("%s := %s", o, off))
		if g.spanElems[r] = fmt.Sprintf("%s[%s + (zzJ+zzK)*%d]", symCode(r.Sym), o, k); k == 1 {
			views = append(views, fmt.Sprintf("%s := %s[%s+zzJ:][:zzM]", v, symCode(r.Sym), o))
			g.spanElems[r] = v + "[zzK]"
		}
	}
	g.p("zzF, zzL := zzR.Index(zzLo), zzR.Index(zzHi-1)")
	g.p("if zzStride == 1 && %s {", strings.Join(tests, " && "))
	g.p("%s", strings.Join(offs, "\n"))
	g.p("for zzJ, zzN := 0, zzHi-zzLo; zzJ < zzN; zzJ += %d {\nzzM := min(zzN-zzJ, %[1]d)", core.PoisonEvery)
	g.p("%s", strings.Join(append(views, "for zzK := 0; zzK < zzM; zzK++ {"), "\n"))
	g.spanIndex[t.VarSym] = "(zzF + zzJ + zzK)"
	if err := g.stmts(t.Body); err != nil {
		return false, err
	}
	g.spanIndex, g.spanElems = nil, nil
	g.p("}\np.Check()\n}\n} else {")
	return true, nil
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
	operand, err := g.expr(acc.Operand)
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

// loop emits one lone DOALL: the span loop, and behind an open one the
// exit synchronization running the section of the Barrier riding it.
func (g *generator) loop(l plan.Loop) error {
	if err := g.doAll(l); err != nil || !l.Open {
		return err
	}
	return g.join("p.JoinSection(", l.Section)
}

// region emits one closing collective and what it closes: every member
// open, then the one join.  It is the only lowering of a ReduceStmt in the
// emitter.  The operand has the target's type (the checker converts it),
// so the combination happens in the target's arithmetic, and contributes
// to the join bit-encoded.  Who stores the fold, and when, is
// the region's Store (plan.Store gives the four shapes and why); the
// serialised one is a runtime critical section here, so aliased shared
// cells see race-free identical writes and per-process cells their copy.
func (g *generator) region(reg plan.Region) error {
	for _, m := range reg.Members {
		if err := g.doAll(m); err != nil {
			return err
		}
	}
	red := reg.Red
	if red == nil {
		return g.join("p.FusedClose(", reg.Section)
	}
	g.usesReduce = true
	lhs, lt, err := g.lvalue(&red.Target)
	if err != nil {
		return err
	}
	operand, err := g.expr(red.Expr)
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
	call := fmt.Sprintf("p.FusedJoin(reduce.%s, %s, %s, ", reg.Fold, numKind, bits)
	if reg.Store == plan.StoreOnce {
		return g.join(fmt.Sprintf("%sfunc(zzOut uint64) { %s }, ", call, once), reg.Section)
	}
	g.p("{")
	g.ind++
	switch reg.Store {
	case plan.StoreEachEarly:
		g.p("zzStored := false")
		err = g.join(fmt.Sprintf("zzOut := %sfunc(zzOut uint64) { zzStored, %s = true, %s }, ", call, lhs, val), reg.Section)
		g.p("if !zzStored {")
		g.p("\t%s = %s", lhs, val)
		g.p("}")
	case plan.StoreEachSerialised:
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

// join emits call — a closing collective's call up to its last argument —
// completed by the section riding it (nil: none, the collective is the
// whole barrier).
func (g *generator) join(call string, section []forcelang.Stmt) error {
	if section == nil {
		g.p("%snil)", call)
		return nil
	}
	g.p("%sfunc() {", call)
	g.ind++
	if err := g.stmts(section); err != nil {
		return err
	}
	g.ind--
	g.p("})")
	return nil
}
