package interp

// The closure spelling of internal/plan's Loop and Region nodes.  Which
// runs of adjacent DOALLs (plus a trailing numeric reduction) share one
// closing collective, which Barrier rides which collective and how a fold
// is stored are decided there (plan/fuse.go states the legality argument
// and draws the region) and arrive as fields; this file turns a node into
// its closures, a riding Barrier's section into the section argument of
// the collective it rides.  Every decision is compile-time, and rendered
// into Config.FuseLog.  Config.NoFuse and ExecCompiled only lower the
// target's level (planTarget), so the same closures run fused, unfused
// and unplanned — byte-identical by construction or the corpus tests fail.

import (
	"math"

	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/reduce"
)

// closureNsPerUnit and blockNsPerUnit are what one unit of plan's static
// body cost takes on the closure tier, per iteration and in a body
// evaluated a block at a time (block.go).  BenchmarkSpanBody is where they
// are read from: the stream, stencil and dotsum bodies run at 2-3 ns per
// unit per iteration (3-4 when the 4 was taken, before the span check) and
// at 0.5-2 block-evaluated, the store-free dotsum at the low end.
const (
	closureNsPerUnit = 4
	blockNsPerUnit   = 1
)

// planTarget is the closure back end as internal/plan sees it: the level
// cfg selects — the planner off (ExecCompiled), on without fusion
// (NoFuse), or whole.
func planTarget(cfg Config) plan.Target {
	tg := plan.Target{NsPerUnit: closureNsPerUnit, NsPerBlockUnit: blockNsPerUnit, Level: plan.Fused}
	switch {
	case cfg.Exec != ExecChunked:
		tg.Level = plan.Plain
	case cfg.NoFuse:
		tg.Level = plan.Planned
	}
	return tg
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

// loop compiles one lone DOALL: the span loop, and behind an open one the
// exit synchronization running the riding Barrier's section.
func (c *compiler) loop(l plan.Loop) stmtFn {
	run := c.chunkParDo(l)
	if l.Section == nil {
		return run
	}
	section := c.stmts(l.Section)
	note := noteStr("Barrier", l.Rider.Pos())
	return func(pr *cproc, fr *frame) {
		run(pr, fr)
		pr.p.Note(note)
		pr.p.JoinSection(pr.sectionFn(section, fr))
	}
}

// foldOps spells plan's folds as the runtime's.
var foldOps = map[plan.Fold]reduce.Op{plan.Sum: reduce.Sum, plan.Prod: reduce.Prod, plan.Max: reduce.Max,
	plan.Min: reduce.Min, plan.And: reduce.And, plan.Or: reduce.Or}

// region compiles one closing collective and what it closes: the open
// members, the reduction folded into it, the section riding it.  It is the
// only lowering of a ReduceStmt in the closure compiler.  The operand
// combines across the force in the target's type, so every tier folds in
// the same arithmetic.  Who stores the fold, and when, is the region's
// Store; stores here are atomic words, so none needs serialising.
func (c *compiler) region(reg plan.Region) stmtFn {
	opens := make([]stmtFn, len(reg.Members))
	for i, m := range reg.Members {
		opens[i] = c.chunkParDo(m)
	}
	red, section := reg.Red, c.stmts(reg.Section)
	var note *string
	switch {
	case reg.Section != nil:
		note = noteStr("Barrier", reg.Rider.Pos())
	case red != nil:
		note = noteStr(red.Op.String(), red.Pos())
	default:
		note = noteStr("fused join", reg.Members[len(reg.Members)-1].Do.Pos())
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
	rop, kind := foldOps[reg.Fold], reduce.NumInt
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
		iv := c.cInt(red.Expr)
		operand = func(pr *cproc, fr *frame) uint64 { return uint64(iv(pr, fr)) }
		store = func(pr *cproc, fr *frame, fold uint64) { assign(pr, fr, intVal(int64(fold))) }
	}
	inside, after := reg.Store.Inside(), reg.Store.After()
	return func(pr *cproc, fr *frame) {
		for _, open := range opens {
			open(pr, fr)
		}
		pr.p.Note(note)
		x := operand(pr, fr)
		var storeFold func(uint64)
		if inside {
			storeFold = pr.storeFn(store, fr)
		}
		out := pr.p.FusedJoin(rop, kind, x, storeFold, pr.sectionFn(section, fr))
		if after && !(inside && pr.ride.stored) {
			store(pr, fr, out)
		}
	}
}
