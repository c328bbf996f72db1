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
// Every decision is compile-time; Config.FuseLog narrates each fused
// region and each declined candidate.  Config.NoFuse turns the pass
// off, and the pass never runs under ExecCompiled or ExecTree — so fused
// and unfused runs are byte-identical by construction or the corpus
// tests fail.

import (
	"fmt"
	"math"

	"repro/internal/forcelang"
	"repro/internal/plan"
	"repro/internal/reduce"
)

// fuseEnabled reports whether the fusion pass applies at all: only with
// the planner on.
func (c *compiler) fuseEnabled() bool { return c.chunkTier() && !c.in.cfg.NoFuse }

// planLog is the narration sink handed to the shared proofs: FuseLog
// lines, or nothing.
func (c *compiler) planLog() plan.Logf {
	lg := c.in.cfg.FuseLog
	if lg == nil {
		return nil
	}
	return func(format string, args ...any) { lg(fmt.Sprintf(format, args...)) }
}

// fusedStmts is the fusion-aware statement-list compiler: a proven
// region starting at a DOALL compiles as one statement, everything else
// through the ordinary per-statement path.
func (c *compiler) fusedStmts(list []forcelang.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(list))
	slots := c.in.cfg.Reduce == reduce.PrivateSlots
	for i := 0; i < len(list); {
		if _, isPD := list[i].(*forcelang.ParDo); isPD {
			if reg := plan.Fuse(list, i, slots, c.planLog()); reg != nil {
				out = append(out, c.fusedRegion(reg))
				i += reg.Len()
				continue
			}
		}
		out = append(out, c.stmt(list[i]))
		i++
	}
	return out
}

// fusedRegion compiles one proven region: each member against its own
// plan as an open construct, closed by one fused join that also folds
// the reduction tail when the region has one.
func (c *compiler) fusedRegion(reg *plan.Region) stmtFn {
	opens := make([]stmtFn, len(reg.Members))
	for i, m := range reg.Members {
		opens[i] = c.chunkParDo(m, reg.Plans[i], true, reg.Block)
	}
	red := reg.Red
	if red == nil {
		note := noteStr("fused join", reg.Members[len(reg.Members)-1].Pos())
		return func(pr *cproc, fr *frame) {
			for _, open := range opens {
				open(pr, fr)
			}
			pr.p.Note(note)
			// A pure synchronization close: the fold value is unused.
			pr.p.FusedJoin(reduce.Sum, reduce.NumInt, 0)
		}
	}
	store, tt := c.refStore(&red.Target)
	rop := foldOp(red.Op)
	note := noteStr(red.Op.String(), red.Pos())
	if tt == forcelang.TInt {
		iv := c.asInt(red.Expr)
		return func(pr *cproc, fr *frame) {
			for _, open := range opens {
				open(pr, fr)
			}
			pr.p.Note(note)
			out := pr.p.FusedJoin(rop, reduce.NumInt, uint64(iv(pr, fr)))
			store(pr, fr, intVal(int64(out)))
		}
	}
	rv := c.cReal(red.Expr)
	return func(pr *cproc, fr *frame) {
		for _, open := range opens {
			open(pr, fr)
		}
		pr.p.Note(note)
		out := pr.p.FusedJoin(rop, reduce.NumReal, math.Float64bits(rv(pr, fr)))
		store(pr, fr, realVal(math.Float64frombits(out)))
	}
}

// foldOp maps a numeric language-level reduction operator to its fold.
func foldOp(op forcelang.GOp) reduce.Op {
	switch op {
	case forcelang.GSum:
		return reduce.Sum
	case forcelang.GProd:
		return reduce.Prod
	case forcelang.GMax:
		return reduce.Max
	default:
		return reduce.Min
	}
}
