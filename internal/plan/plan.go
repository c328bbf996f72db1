// Package plan holds the back-end-independent lowering decisions for
// DOALLs: which bodies may run as whole scheduler spans and what is
// proven about them (classify.go), and which adjacent DOALLs may share
// one closing synchronization (fuse.go).  Both back ends read the same
// verdicts — the closure compiler (internal/interp) turns them into span
// closures, the Go emitter (internal/codegen) into span loops — so a
// proof exists once and the tiers cannot disagree on what is legal.
//
// The package sees a program unit only through Unit, the "how is this
// name stored" seam over the checker's scope: nothing here knows about
// frames, slots, cells or generated identifiers.
package plan

import (
	"strings"

	"repro/internal/forcelang"
	"repro/internal/shm"
)

// Class is where a name lives, as far as the proofs care.
type Class uint8

const (
	// Private is a per-process (or per-call) scalar.
	Private Class = iota
	// PrivArray is a per-process (or per-call) array.
	PrivArray
	// Shared is a force-wide scalar.
	Shared
	// SharedArray is a force-wide array.
	SharedArray
	// Async is a full/empty cell or an array of them.
	Async
	// Param is a by-reference alias of unknown caller storage.
	Param
)

// ClassOf is the storage class a declaration implies on its own, i.e.
// for every name that is not a parameter of the unit it is seen from.
func ClassOf(d forcelang.Decl) Class {
	switch {
	case d.Class == shm.Async:
		return Async
	case d.Class == shm.Shared && len(d.Dims) > 0:
		return SharedArray
	case d.Class == shm.Shared:
		return Shared
	case len(d.Dims) > 0:
		return PrivArray
	default:
		return Private
	}
}

// Unit is one program unit — the main program (Sub nil) or a Forcesub —
// as the checker resolved it.
type Unit struct {
	Prog  *forcelang.Program
	Scope *forcelang.Scope
	Sub   *forcelang.Subroutine
}

// Lookup answers the one question the proofs ask of a unit: how is name
// stored, and under which declaration.  The NP and ident variables bind
// first (they shadow same-named declarations, as in every back end),
// then the unit's parameters, then the scope.
func (u Unit) Lookup(name string) (Class, forcelang.Decl, bool) {
	d, ok := u.Scope.Lookup(name)
	switch {
	case name == u.Prog.NPVar:
		return Shared, forcelang.Decl{Class: shm.Shared, Type: forcelang.TInt, Name: name}, true
	case name == u.Prog.MeVar:
		return Private, forcelang.Decl{Class: shm.Private, Type: forcelang.TInt, Name: name}, true
	case !ok:
		return 0, d, false
	}
	if u.Sub != nil {
		for _, p := range u.Sub.Params {
			if p == name {
				return Param, d, true
			}
		}
	}
	return ClassOf(d), d, true
}

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
func (u Unit) DoAll(t *forcelang.ParDo, lg Logf) *Plan {
	p, reason := u.Classify(t)
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
