// Package plan holds what is decided about a parallel body before any
// back end lowers it.  summary.go is the footprint: one walk
// (Summarize) records which symbols a statement list reads and writes
// and how, and the proofs — pure accumulator, element-disjoint
// subscripts, one Critical, idempotent stores — are written once over
// that record.  classify.go turns a DOALL body's footprint into its
// plan (may it run as whole scheduler spans, what folds, how it is
// dealt), cost.go counts its static cost and sizes the grant of a
// selfscheduled loop from it, fuse.go decides which adjacent DOALLs may
// share one closing synchronization, and Rider (below) which Barrier
// statements need no episode of their own.  Both back ends read the same verdicts — the closure
// compiler (internal/interp) turns them into span closures, the Go
// emitter (internal/codegen) into span loops — and forcevet
// (internal/vet) reads the same footprint and proofs for its race
// diagnostics and its dataflow's kill sets, so a proof exists once and
// neither the tiers nor the analyzer can disagree on what is legal.
//
// The package reads what a name is and what type an expression has off
// the checked tree (forcelang.Symbol on every node that names a variable,
// Expr.Type): nothing here resolves a name, infers a type, or knows about
// frames, slots, cells or generated identifiers.
package plan

import (
	"strings"

	"repro/internal/forcelang"
)

// Logf receives one narration line per decision (forcerun -v's "fuse:"
// lines); a nil Logf discards them.
type Logf func(format string, args ...any)

func (lg Logf) printf(format string, args ...any) {
	if lg != nil {
		lg(format, args...)
	}
}

// Target is the back end a statement list is planned for: what the
// decisions below need to know about it, and where they are narrated.
type Target struct {
	// NsPerUnit is what one unit of static body cost (cost.go) takes on
	// the back end, in nanoseconds; it sizes the grant.
	NsPerUnit int
	// Log receives the narration.
	Log Logf
}

// settle sizes p's grant for the back end and narrates how the DOALL t is
// dealt: the partition of a prescheduled one — deal's, the region's for a
// fused member — or the grant of a selfscheduled one.
func (tg Target) settle(t *forcelang.ParDo, p, deal *Plan) {
	p.grant = grant(p.Cost, tg.NsPerUnit)
	switch {
	case tg.Log == nil:
	case t.Sched != forcelang.Presched && p.Cost == 0:
		tg.Log("line %d: DOALL grant=1 (body cost unbounded)", t.Pos())
	case t.Sched != forcelang.Presched && grantedWhole(t, p.grant):
		tg.Log("line %d: DOALL grant=%d ≥ trip count: process 0 runs it", t.Pos(), p.grant)
	case t.Sched != forcelang.Presched:
		tg.Log("line %d: DOALL grant=%d", t.Pos(), p.grant)
	case deal.CyclicWhy == "":
		tg.Log("line %d: DOALL partition=block", t.Pos())
	default:
		tg.Log("line %d: DOALL partition=cyclic (%s)", t.Pos(), strings.TrimSpace(deal.CyclicWhy+" "+deal.CyclicName))
	}
}

// DoAll classifies one unfused DOALL and narrates the verdict.  A nil
// plan means the body must keep per-iteration semantics: no fact about
// it is proven, so it is dealt cyclically or one iteration per claim and
// nothing in it folds.
func (tg Target) DoAll(t *forcelang.ParDo) *Plan {
	p, reason := Classify(t)
	if reason != "" {
		deal := "partition=cyclic"
		if t.Sched != forcelang.Presched {
			deal = "grant=1"
		}
		tg.Log.printf("line %d: DOALL %s (not chunk-compiled: %s)", t.Pos(), deal, reason)
		return nil
	}
	tg.settle(t, p, p)
	return p
}

// Block reports whether a prescheduled DOALL under this plan is dealt in
// contiguous blocks (the body is mapping-insensitive) instead of the
// paper's cyclic deal.  A nil plan keeps the cyclic deal.
func (p *Plan) Block() bool { return p != nil && p.CyclicWhy == "" }

// Grant is how many ordinals one claim of a selfscheduled DOALL under this
// plan takes on the back end it was settled for.  A nil plan keeps the
// paper's one.
func (p *Plan) Grant() int {
	if p == nil {
		return 1
	}
	return max(p.grant, 1)
}

// Rider returns the Barrier statement riding the closing collective of the
// construct list[i]: the statement directly behind a DOALL (it rides the
// exit synchronization) or behind a global reduction into a plain scalar
// (it rides the reduction's release), or nil.  A closing collective is a
// full synchronization whose completing process runs alone, which is all
// a barrier section asks for, so nothing about the section needs proving;
// the reduction's target must be a plain scalar because a back end stores
// it once, in the completing process, before the section may read it.  A
// fused region's rider is Region.Rider.
func (tg Target) Rider(list []forcelang.Stmt, i int) *forcelang.BarrierStmt {
	switch t := list[i].(type) {
	case *forcelang.ParDo:
		return tg.rider(list, i+1, "DOALL exit", t.Pos())
	case *forcelang.ReduceStmt:
		if scalarTarget(t) {
			return tg.rider(list, i+1, t.Op.String(), t.Pos())
		}
	}
	return nil
}

// rider returns list[i] when it is a Barrier statement, narrated as
// riding the closer at line.
func (tg Target) rider(list []forcelang.Stmt, i int, closer string, line int) *forcelang.BarrierStmt {
	if i >= len(list) {
		return nil
	}
	bar, _ := list[i].(*forcelang.BarrierStmt)
	if bar != nil {
		tg.Log.printf("line %d: Barrier rides the %s at line %d", bar.Pos(), closer, line)
	}
	return bar
}

// scalarTarget reports whether a reduction lands in an unsubscripted
// private or shared scalar — not an array element, whose subscript may
// differ per process, and not a parameter, which may alias either class.
func scalarTarget(red *forcelang.ReduceStmt) bool {
	st := red.Target.Sym.Storage
	return len(red.Target.Subs) == 0 && (st == forcelang.PrivateScalar || st == forcelang.SharedScalar)
}
