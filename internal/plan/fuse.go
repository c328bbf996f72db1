package plan

// The fusion proofs: barrier elision across independent DOALLs and
// span-folded reductions.  At level Fused, Next scans every statement list
// for maximal runs of adjacent single-index DOALLs, optionally followed by
// a numeric global-reduction statement (fuse), and a back end executes a
// proven-independent run as ONE fused region:
//
//	member 1: DoAllChunkedOpen   (spans, no exit barrier)
//	member 2: DoAllChunkedOpen
//	...
//	FusedJoin                    (the single closing collective)
//
// The join is a full synchronization point, so the region keeps every
// construct's exit guarantee while retiring one barrier episode per
// elided boundary; a folded reduction contributes its per-process operand
// to the join itself, and a Barrier statement directly behind the region
// retires its episode — the join's completing process runs its section.
// A reduction statement no region takes is the region with no members:
// the same collective, nothing open in front of it.
//
// Legality.  Dropping the barrier between members G (earlier) and B
// (later) interleaves B's iteration i directly after G's iteration i on
// the same process, while other processes may still be anywhere in G.
// That reordering is invisible exactly when no datum written in one
// member is touched by another at a different iteration:
//
//   - all members share one index variable and Canon-identical bounds,
//     and the bounds read nothing the region writes (a later member's
//     bounds would otherwise observe pre-barrier state);
//   - member bodies are individually span-certified, and so is their
//     concatenation (one synthetic DOALL), whose classification also
//     yields the region-wide disjointness facts;
//   - no member references a subroutine parameter (unknown aliasing);
//   - any name written by one member and referenced by another must be
//     a shared array proven element-disjoint over the COMBINED uses of
//     the whole region, AND the region must be prescheduled: disjoint
//     uses mean iteration i only ever touches its own elements, and
//     prescheduling pins iteration i of every member to the same
//     process (the cyclic and the block deal are both pure functions
//     of pid, np and the shared bounds, and a region uses one of them
//     throughout), so a later member's read of an element was either
//     written by the same process in program order or never written at
//     all.  Selfscheduled members hand iteration i of different
//     members to different processes, so ANY cross-member conflict
//     declines there; scalars (shared or private) and unproven arrays
//     decline everywhere — their mid-region values are observable.
//
// A trailing GSUM/GPROD/GMAX/GMIN folds into the join when its target
// is an unsubscripted scalar, its operand reads no parameter and no
// shared name the region writes (per-process private state is fine —
// it is complete once the contributing process finishes its own
// spans).  The fold order cannot show: a fused tail and a reduction on
// its own contribute through the same collective, which folds the same
// way under either reduction strategy.  GAND/GOR close a collective of
// their own.

import (
	"fmt"

	"repro/internal/forcelang"
)

// fuse looks for a fused region starting at list[i], a ParDo: the run of
// adjacent DOALLs from there, plus a reduction tail.  Candidates shrink
// from the right — the tail is dropped first, then trailing members — so
// the longest provable prefix fuses and the next step re-scans the
// remainder (it may fuse among itself) over the footprints this one
// walked.  Only the most ambitious decline is kept; the shrink retries
// repeat its reasons.  A Barrier statement directly behind the region
// rides its join.  It returns the region and how many statements it
// covers, 0 when list[i] is to be lowered on its own, and the decline.
func (tg *Target) fuse(list []forcelang.Stmt, i int) (reg Region, covers int, declined string) {
	run, sums := tg.scan(list, i)
	var red *forcelang.ReduceStmt
	if end := i + len(run); end < len(list) {
		red, _ = list[end].(*forcelang.ReduceStmt)
	}
	if red == nil && len(run) < 2 {
		return Region{}, 0, "" // nothing to elide: not a candidate
	}
	for k := range run {
		tg.summary(i + k)
	}
	for n := len(run); n >= 2 || red != nil; {
		members, reason := tg.tryFuse(run[:n], sums[:n], red)
		if reason == "" {
			covers = n
			if red != nil {
				covers++
			}
			reg, rode := Region{Members: members, Red: red}, 0
			reg.Rider, reg.Section, rode = rider(list, i+covers)
			return closing(reg), covers + rode, declined
		}
		if declined == "" {
			declined = reason
		}
		if red != nil {
			red = nil
		} else {
			n--
		}
	}
	return Region{}, 0, declined
}

// tryFuse proves one candidate region and returns its members, or explains
// why it must not fuse.  sums holds each member body's footprint.
func (tg *Target) tryFuse(run []forcelang.Stmt, sums []*Summary, red *forcelang.ReduceStmt) ([]Loop, string) {
	first := run[0].(*forcelang.ParDo)
	for _, st := range run {
		m := st.(*forcelang.ParDo)
		if m.Inner != nil {
			return nil, fmt.Sprintf("two-index DOALL at line %d", m.Pos())
		}
		if m.Sched != first.Sched {
			return nil, fmt.Sprintf("mixed scheduling at line %d", m.Pos())
		}
	}
	for _, st := range run[1:] {
		m := st.(*forcelang.ParDo)
		if m.VarSym != first.VarSym {
			return nil, fmt.Sprintf("index variables differ (%s at line %d, %s at line %d)",
				first.Var, first.Pos(), m.Var, m.Pos())
		}
		if Canon(m.From) != Canon(first.From) ||
			Canon(m.To) != Canon(first.To) ||
			stepCanon(m.Step) != stepCanon(first.Step) {
			return nil, fmt.Sprintf("bounds differ between lines %d and %d", first.Pos(), m.Pos())
		}
	}

	// Classify the concatenation of every member body as one synthetic
	// DOALL: its verdict certifies each statement for span execution and
	// its disjointness facts cover the region's COMBINED array uses.
	whole, reason := classify(first, merge(sums), tg.facts().entries[first])
	if reason != "" {
		return nil, reason
	}
	if whole.NoBulk {
		return nil, "parameter references in the region"
	}

	// Bounds are evaluated at each member's open, with other processes
	// possibly deep in earlier members — so they must read nothing the
	// region writes, and not the index variable (which a preceding
	// member's spans update).  Members have Canon-identical bounds, so
	// checking the first covers all.
	for _, e := range []forcelang.Expr{first.From, first.To, first.Step} {
		bad := ""
		walk(e, func(r *forcelang.Ref) {
			if whole.Written(r.Sym) || r.Sym == first.VarSym {
				bad = r.Name
			}
		})
		if bad != "" {
			return nil, fmt.Sprintf("bounds read %s, which the region writes", bad)
		}
	}

	// The same-element argument needs the same pid to execute iteration i
	// in EVERY member, which only prescheduling guarantees; selfscheduled
	// members hand iteration i of different members to whichever process
	// asks first.  (Disjoint holds shared arrays only.)
	excused := func(sym *forcelang.Symbol) bool {
		return sym == first.VarSym || (first.Sched == forcelang.Presched && whole.Disjoint[sym])
	}
	for a := 0; a < len(run); a++ {
		for b := a + 1; b < len(run); b++ {
			if sym := conflict(sums[a], sums[b], excused); sym != nil {
				return nil, fmt.Sprintf("members at lines %d and %d conflict on %s",
					run[a].Pos(), run[b].Pos(), sym.Name)
			}
		}
	}

	if red != nil {
		if reason := fuseReduceCheck(red, whole); reason != "" {
			return nil, reason
		}
	}

	members := make([]Loop, len(run))
	for k, st := range run {
		m := st.(*forcelang.ParDo)
		// A member's own footprint cannot refute what the region's
		// passed: it is span-executable and leaves the index alone.  The
		// deal is the region's (blocks only when the concatenated body is
		// mapping-insensitive: the same-pid argument needs ONE map).
		p := whole
		if len(run) > 1 {
			p, _ = classify(m, sums[k], tg.facts().entries[m])
		}
		members[k] = tg.loop(m, p, whole)
		members[k].Open = true
	}
	return members, ""
}

// fuseReduceCheck decides whether the reduction tail may fold into the
// region's join.
func fuseReduceCheck(red *forcelang.ReduceStmt, whole *Plan) string {
	if red.Op.Logical() {
		return fmt.Sprintf("%s is a logical reduction", red.Op)
	}
	if len(red.Target.Subs) != 0 {
		return fmt.Sprintf("subscripted %s target", red.Op)
	}
	if !scalarTarget(red) {
		return fmt.Sprintf("%s target %s is not a plain scalar", red.Op, red.Target.Name)
	}
	tt := red.Target.Sym.Type
	if tt != forcelang.TInt && tt != forcelang.TReal {
		return fmt.Sprintf("%s target %s is not numeric", red.Op, red.Target.Name)
	}
	bad := ""
	walk(red.Expr, func(r *forcelang.Ref) {
		class := r.Sym.Storage
		if class == forcelang.Parameter {
			bad = "parameter " + r.Name
			return
		}
		if whole.Written(r.Sym) && (class == forcelang.SharedScalar || class == forcelang.SharedArray) {
			bad = fmt.Sprintf("shared %s, which the region writes", r.Name)
		}
	})
	if bad != "" {
		return fmt.Sprintf("%s operand reads %s", red.Op, bad)
	}
	return ""
}

// conflict returns the first symbol in name order — the one a decline
// names — that one member writes and the other touches without being
// excused: write-read, read-write and write-write pairs all reorder
// observably across an elided barrier.
func conflict(x, y *Summary, excused func(*forcelang.Symbol) bool) *forcelang.Symbol {
	var worst *forcelang.Symbol
	for _, a := range x.Accesses() {
		b := y.Of(a.Sym)
		if b != nil && (a.Written() || b.Written()) && !excused(a.Sym) && (worst == nil || a.Sym.Name < worst.Name) {
			worst = a.Sym
		}
	}
	return worst
}

// stepCanon keys an optional loop step; an absent step is the literal 1.
func stepCanon(e forcelang.Expr) string {
	if e == nil {
		return Canon(&forcelang.IntLit{Value: 1})
	}
	return Canon(e)
}
