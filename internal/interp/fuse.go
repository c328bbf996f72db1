package interp

// The closure half of the fusion pass.  Which runs of adjacent DOALLs
// (plus a trailing numeric reduction) are provably independent is
// decided in internal/plan (fuse.go there states the legality argument);
// this file compiles a proven region into its closures:
//
//	member 1: DoAllChunkedOpen   (spans, no exit barrier)
//	member 2: DoAllChunkedOpen
//	...
//	FusedJoin                    (the single closing collective)
//
// — a reduction statement on its own being the region with no members —
// and a Barrier statement the plan lets ride a closing collective — a
// DOALL's exit (JoinSection), a region's join, with or without members —
// into that collective's section.
//
// Every decision is compile-time; Config.FuseLog narrates each fused
// region, each declined candidate and each ridden Barrier.
// Config.NoFuse turns the pass off, and the pass never runs under
// ExecCompiled or ExecTree — so fused and unfused runs are byte-identical
// by construction or the corpus tests fail.

import (
	"fmt"
	"math"

	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/reduce"
)

// fuseEnabled reports whether the fusion pass applies at all: only with
// the planner on.
func (c *compiler) fuseEnabled() bool { return c.chunkTier() && !c.in.cfg.NoFuse }

// closureNsPerUnit is what one unit of plan's static body cost takes on
// the closure tier (the stream, stencil and dotsum bodies run at 3-4 ns
// per unit on the reference box).
const closureNsPerUnit = 4

// planTarget is the closure back end as internal/plan sees it; the
// narration goes to FuseLog, or nowhere.
func planTarget(cfg Config) plan.Target {
	tg := plan.Target{NsPerUnit: closureNsPerUnit}
	if lg := cfg.FuseLog; lg != nil {
		tg.Log = func(format string, args ...any) { lg(fmt.Sprintf(format, args...)) }
	}
	return tg
}

// fusedStmts is the fusion-aware statement-list compiler: a proven
// region starting at a DOALL compiles as one statement, a Barrier
// statement directly behind a DOALL or a global reduction compiles into
// that construct's closing collective (plan.Target.Rider), everything
// else through the ordinary per-statement path.
func (c *compiler) fusedStmts(list []forcelang.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(list))
	for i := 0; i < len(list); {
		n := 1
		var bar *forcelang.BarrierStmt // the rider of list[i], consumed with it
		switch t := list[i].(type) {
		case *forcelang.ParDo:
			if reg := c.tg.Fuse(list, i); reg != nil {
				out, n = append(out, c.region(reg)), reg.Len()
				break
			}
			p := c.tg.DoAll(t)
			bar = c.tg.Rider(list, i)
			out = append(out, c.riddenParDo(t, p, bar))
		case *forcelang.ReduceStmt:
			bar = c.tg.Rider(list, i)
			out = append(out, c.region(&plan.Region{Red: t, Rider: bar}))
		default:
			out = append(out, c.stmt(t))
		}
		if bar != nil {
			n++
		}
		i += n
	}
	return out
}

// rider is what a process hands the closing collective it is about to
// enter, to be run if it turns out to be the completing process: the
// section of the Barrier statement riding the collective, and the store
// of a folded reduction's target.  It lives in the cproc (one per process
// suffices: a section cannot contain a collective) with the two funcs the
// runtime is given bound once, so a steady-state episode allocates
// nothing.
type rider struct {
	fr      *frame
	section []stmtFn
	store   func(pr *cproc, fr *frame, fold uint64)
	stored  bool // this process completed the join: it stored the fold
	run     func()
	fold    func(uint64)
}

// sectionFn arms the rider with a barrier section and returns the func to
// hand the collective — nil for an empty section, which needs no one to
// run it.
func (pr *cproc) sectionFn(section []stmtFn, fr *frame) func() {
	if len(section) == 0 {
		return nil
	}
	rd := &pr.ride
	rd.fr, rd.section = fr, section
	if rd.run == nil {
		rd.run = func() { runBody(rd.section, pr, rd.fr) }
	}
	return rd.run
}

// storeFn arms the rider with the store of a folded reduction's target and
// returns the func that performs it on the fold.
func (pr *cproc) storeFn(store func(pr *cproc, fr *frame, fold uint64), fr *frame) func(uint64) {
	rd := &pr.ride
	rd.fr, rd.store, rd.stored = fr, store, false
	if rd.fold == nil {
		rd.fold = func(fold uint64) {
			rd.stored = true
			rd.store(pr, rd.fr, fold)
		}
	}
	return rd.fold
}

// riddenParDo compiles one unfused DOALL whose exit synchronization runs
// the section of bar, the Barrier statement directly behind it (nil, or an
// empty section: the exit is the whole barrier).
func (c *compiler) riddenParDo(t *forcelang.ParDo, p *plan.Plan, bar *forcelang.BarrierStmt) stmtFn {
	if bar == nil || len(bar.Section) == 0 {
		return c.chunkParDo(t, p, false, p.Block())
	}
	open := c.chunkParDo(t, p, true, p.Block())
	section := c.stmts(bar.Section)
	note := noteStr("Barrier", bar.Pos())
	return func(pr *cproc, fr *frame) {
		open(pr, fr)
		pr.p.Note(note)
		pr.p.JoinSection(pr.sectionFn(section, fr))
	}
}

// region compiles one closing collective and what it closes: the members
// of a proven region, each against its own plan as an open construct (a
// reduction statement on its own is a region with no members), the
// reduction folded into the collective when the region has one, and the
// section of the Barrier statement riding it when one does.  It is the
// only lowering of a ReduceStmt in the closure compiler.  The operand
// combines across the force in the target's type, so every tier folds in
// the same arithmetic.  The completing process stores the fold before the
// section runs: a shared scalar once (the section may overwrite it), a
// private one in every process — the others after their release; an array
// element or a parameter, which no Barrier rides, in every process after
// the release.
func (c *compiler) region(reg *plan.Region) stmtFn {
	opens := make([]stmtFn, len(reg.Members))
	for i, m := range reg.Members {
		opens[i] = c.chunkParDo(m, reg.Plans[i], true, reg.Block)
	}
	red := reg.Red
	var note *string
	if red != nil {
		note = noteStr(red.Op.String(), red.Pos())
	} else {
		note = noteStr("fused join", reg.Members[len(reg.Members)-1].Pos())
	}
	var section []stmtFn
	if reg.Rider != nil && len(reg.Rider.Section) > 0 {
		section = c.stmts(reg.Rider.Section)
		note = noteStr("Barrier", reg.Rider.Pos())
	}
	if red == nil {
		return func(pr *cproc, fr *frame) {
			for _, open := range opens {
				open(pr, fr)
			}
			pr.p.Note(note)
			pr.p.FusedClose(pr.sectionFn(section, fr))
		}
	}
	assign, tt := c.refStore(&red.Target)
	rop, kind := foldOp(red.Op), reduce.NumInt
	// operand encodes the contribution, store decodes and assigns the fold.
	var operand func(pr *cproc, fr *frame) uint64
	var store func(pr *cproc, fr *frame, fold uint64)
	switch tt {
	case forcelang.TReal:
		kind = reduce.NumReal
		rv := c.cReal(red.Expr)
		operand = func(pr *cproc, fr *frame) uint64 { return math.Float64bits(rv(pr, fr)) }
		store = func(pr *cproc, fr *frame, fold uint64) { assign(pr, fr, realVal(math.Float64frombits(fold))) }
	case forcelang.TLogical:
		bv := c.cBool(red.Expr)
		operand = func(pr *cproc, fr *frame) uint64 { return forcert.Bit(bv(pr, fr)) }
		store = func(pr *cproc, fr *frame, fold uint64) { assign(pr, fr, boolVal(fold != 0)) }
	default:
		iv := c.asInt(red.Expr)
		operand = func(pr *cproc, fr *frame) uint64 { return uint64(iv(pr, fr)) }
		store = func(pr *cproc, fr *frame, fold uint64) { assign(pr, fr, intVal(int64(fold))) }
	}
	shared := red.Target.Sym.Storage == forcelang.SharedScalar
	early := shared || len(section) > 0 // the completing process stores inside the join
	return func(pr *cproc, fr *frame) {
		for _, open := range opens {
			open(pr, fr)
		}
		pr.p.Note(note)
		x := operand(pr, fr)
		var storeFold func(uint64)
		if early {
			storeFold = pr.storeFn(store, fr)
		}
		out := pr.p.FusedJoin(rop, kind, x, storeFold, pr.sectionFn(section, fr))
		if !shared && !(early && pr.ride.stored) {
			store(pr, fr, out)
		}
	}
}

// foldOp maps a language-level reduction operator to its fold.
func foldOp(op forcelang.GOp) reduce.Op {
	switch op {
	case forcelang.GSum:
		return reduce.Sum
	case forcelang.GProd:
		return reduce.Prod
	case forcelang.GMax:
		return reduce.Max
	case forcelang.GMin:
		return reduce.Min
	case forcelang.GAnd:
		return reduce.And
	default:
		return reduce.Or
	}
}
