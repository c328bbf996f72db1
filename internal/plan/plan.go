// Package plan holds what is decided about a parallel body before any
// back end lowers it.  summary.go is the footprint: one walk
// (Summarize) records which symbols a statement list reads and writes
// and how, and the proofs — pure accumulator, element-disjoint
// subscripts, one Critical, idempotent stores — are written once over
// that record.  classify.go turns a DOALL body's footprint into its
// plan (may it run as whole scheduler spans, what folds, how it is
// dealt), fuse.go decides which adjacent DOALLs may share one closing
// synchronization.  Both back ends read the same verdicts — the closure
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

// logPartition narrates how a prescheduled DOALL is dealt: in blocks
// (why == "") or cyclically, and why.
func (lg Logf) logPartition(t *forcelang.ParDo, why, name string) {
	switch {
	case lg == nil || t.Sched != forcelang.Presched:
	case why == "":
		lg.printf("line %d: DOALL partition=block", t.Pos())
	default:
		lg.printf("line %d: DOALL partition=cyclic (%s)", t.Pos(), strings.TrimSpace(why+" "+name))
	}
}

// DoAll classifies one unfused DOALL and narrates the verdict.  A nil
// plan means the body must keep per-iteration semantics: no fact about
// it is proven, so it is dealt cyclically and nothing in it folds.
func DoAll(t *forcelang.ParDo, lg Logf) *Plan {
	p, reason := Classify(t)
	if reason != "" {
		lg.logPartition(t, "not chunk-compiled:", reason)
		return nil
	}
	lg.logPartition(t, p.CyclicWhy, p.CyclicName)
	return p
}

// Block reports whether a prescheduled DOALL under this plan is dealt in
// contiguous blocks (the body is mapping-insensitive) instead of the
// paper's cyclic deal.  A nil plan keeps the cyclic deal.
func (p *Plan) Block() bool { return p != nil && p.CyclicWhy == "" }
