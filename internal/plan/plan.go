// Package plan decides what a statement list becomes before any back end
// lowers it, and hands the decision over as a list of nodes.  The node list
// is the package's product and Target.Next the only way in for a statement
// list: a back end walks the list with it and receives, per step, the
// statement itself, a Loop (one DOALL: its plan, deal and grant, the
// Barrier riding its exit) or a Region (the open members of a fused run,
// the reduction folded into their one closing collective, the Barrier
// riding it — a reduction on its own being the region with no members).
// Every decision is a field of the node, its reason included, and
// forcerun -v's lines only render the fields (Node.Narrate); the closure
// compiler (internal/interp) spells them as closures, the Go emitter
// (internal/codegen) as text, and neither re-derives one from the tree.
// Which element references a DOALL range-checks per span, not per
// iteration, is one of them (Plan.SpanCheck, Loop.SpanChecked): a back
// end with a span form narrates it; the Go emitter, which has none yet,
// checks every reference and narrates no such line.
//
// Behind Next: summary.go is the footprint — one walk (Summarize) records
// which symbols a statement list reads and writes and how, and the proofs
// (pure accumulator, element-disjoint subscripts, one Critical, idempotent
// stores) are written once over that record; classify.go turns a DOALL
// body's footprint into its plan; cost.go counts its static cost and sizes
// the grant of a selfscheduled loop from it; fuse.go proves which adjacent
// DOALLs may share one closing synchronization.  forcevet (internal/vet)
// reads the same footprint and proofs, so a proof exists once and neither
// the tiers nor the analyzer can disagree on what is legal.
//
// The package reads what a name is and what type an expression has off
// the checked tree (forcelang.Symbol, Expr.Type): nothing here resolves a
// name, infers a type, or knows about frames, slots, cells or generated
// identifiers — nor about the runtime below the back ends: it imports no
// scheduler, reduction or machine package, and names their choices with
// its own enumerations (Deal, Fold, Store).
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/forcelang"
)

// Level is how much of the planner a target asks for; each level includes
// the one before.
type Level uint8

const (
	// Plain is the planner off: every DOALL is a Loop with no plan, every
	// construct closes on its own, no node narrates anything.
	Plain Level = iota
	// Planned classifies every DOALL body (plan, deal, grant).
	Planned
	// Fused also merges adjacent independent DOALLs and a trailing
	// reduction into one Region and lets a Barrier statement ride the
	// closing collective in front of it.
	Fused
)

// Target is the back end a statement list is planned for: what the
// decisions need to know about it.
type Target struct {
	// NsPerUnit is what one unit of static body cost (cost.go) takes on
	// the back end, in nanoseconds; it sizes the grant.
	NsPerUnit int
	// NsPerBlockUnit is the same for a body the back end evaluates a block
	// at a time (Plan.PerIter == ""); 0 when it has no span form — no
	// block evaluation and no per-span check (Loop.SpanChecked).
	NsPerBlockUnit int
	Level          Level

	// The run of adjacent DOALLs Next is working through, list[from:] of
	// the scanned list, with each body's footprint beside it, walked on
	// first need and at most once: the Loop plans of a declined run stand
	// on the summaries the Region attempt read.  sums is reused run to run.
	run  []forcelang.Stmt
	from int
	sums []*Summary
}

// Node is one step of a lowered statement list: the statement itself (Stmt
// non-nil: nothing about it is the planner's), a lone DOALL (Loop.Do
// non-nil) or a Region; Declined is why a longer run from here did not fuse.
type Node struct {
	Stmt     forcelang.Stmt
	Loop     Loop
	Region   Region
	Declined string
}

// Deal is how the iterations of a DOALL reach the processes.
type Deal uint8

const (
	// Cyclic is the paper's prescheduled deal, iteration k to process
	// k mod NP; Block deals a prescheduled loop whose body cannot observe
	// the iteration-to-process map in contiguous blocks, the index left
	// where the cyclic deal would leave it; Self is selfscheduling under
	// the force's discipline, Grant ordinals per claim.
	Cyclic Deal = iota
	Block
	Self
)

// Loop is one DOALL as a back end runs it: a span loop over the body.
type Loop struct {
	Do *forcelang.ParDo
	// Plan is what is proven about the body; nil when nothing is (it
	// blocks, calls out, prints or writes its index — Unplanned says which
	// — or the level is Plain): per-iteration semantics, nothing hoisted
	// or folded.
	Plan      *Plan
	Unplanned string
	// Deal is decided on DealtBy (a member's is the region's plan), whose
	// CyclicWhy and CyclicName say why it is Cyclic.
	Deal    Deal
	DealtBy *Plan
	// Grant is the ordinals per claim of a selfscheduled loop (1: no plan).
	Grant int
	// SpanChecked of ElemRefs shared-array element references of the body
	// are range-checked per span (Plan.SpanCheck).  Counted only for a
	// planned loop on a target with a span form (NsPerBlockUnit != 0).
	SpanChecked, ElemRefs int
	// Open leaves the construct without its exit barrier: a member of a
	// Region, or a lone DOALL whose exit synchronization runs Section.
	Open bool
	// Rider is the Barrier statement directly behind a lone DOALL, riding
	// its exit; Section its statements, nil when there is no rider or
	// nothing to run (the exit is the whole barrier).
	Rider   *forcelang.BarrierStmt
	Section []forcelang.Stmt
}

// Fold is the combining operator of a reduction, by its name in
// internal/reduce; folds is the one table from the language's operators.
type Fold string

const Sum, Prod, Max, Min, And, Or Fold = "Sum", "Prod", "Max", "Min", "And", "Or"

var folds = [...]Fold{forcelang.GSum: Sum, forcelang.GProd: Prod, forcelang.GMax: Max,
	forcelang.GMin: Min, forcelang.GAnd: And, forcelang.GOr: Or}

// Store is who stores the fold of a Region's reduction, and when.  The
// completing process of the collective runs alone, before anyone is
// released and before the riding section.
type Store uint8

const (
	// StoreOnce: a shared scalar, by the completing process inside the
	// collective (a store per process would race; the section may
	// overwrite it).
	StoreOnce Store = iota
	// StoreEachEarly: a private scalar a section rides behind, by every
	// process into its own cell — the completing process inside the
	// collective, so its section reads it, the others after their release.
	StoreEachEarly
	// StoreEach: a private scalar or element, by every process once released.
	StoreEach
	// StoreEachSerialised: a shared array element (its subscript may differ
	// per process) or a parameter (it may alias a shared or a private
	// cell), by every process after its release, one at a time where a
	// plain store could race.  No Barrier rides such a reduction.
	StoreEachSerialised
)

// Inside: the completing process stores inside the collective; After: a
// process that did not stores after its release.
func (s Store) Inside() bool { return s <= StoreEachEarly }
func (s Store) After() bool  { return s != StoreOnce }

// Region is one closing collective and what it closes.
type Region struct {
	// Members are the DOALLs of a proven fused run, each Open, each with
	// its own plan, all dealt alike.  Empty for a reduction on its own.
	Members []Loop
	// Red is the reduction folded into the collective (nil: a pure
	// synchronization close), Fold and Store its operator and store shape.
	Red   *forcelang.ReduceStmt
	Fold  Fold
	Store Store
	// Rider is the Barrier statement directly behind the region; the
	// completing process runs its Section (nil: none, or nothing to run).
	Rider   *forcelang.BarrierStmt
	Section []forcelang.Stmt
}

// Next lowers the construct at list[i] and returns it with the number of
// statements it covers.  A back end walks every statement list, nested
// ones included, with it, left to right.
func (tg *Target) Next(list []forcelang.Stmt, i int) (Node, int) {
	switch t := list[i].(type) {
	case *forcelang.ParDo:
		if tg.Level == Plain {
			return Node{Loop: tg.loop(t, nil, nil)}, 1
		}
		nd, n := Node{}, 0
		if tg.Level == Fused {
			if nd.Region, n, nd.Declined = tg.fuse(list, i); n > 0 {
				return nd, n
			}
		}
		tg.scan(list, i)
		p, reason := classify(t, tg.summary(i))
		nd.Loop = tg.loop(t, p, p)
		nd.Loop.Unplanned = reason
		if tg.Level == Fused {
			nd.Loop.Rider, nd.Loop.Section, n = rider(list, i+1)
			nd.Loop.Open = nd.Loop.Section != nil
		}
		return nd, 1 + n
	case *forcelang.ReduceStmt:
		reg, n := Region{Red: t}, 0
		if tg.Level == Fused && scalarTarget(t) {
			reg.Rider, reg.Section, n = rider(list, i+1)
		}
		return Node{Region: closing(reg)}, 1 + n
	}
	return Node{Stmt: list[i]}, 1
}

// scan makes list[i], a DOALL, part of the run and returns the run from
// there on with the slots of its footprints.
func (tg *Target) scan(list []forcelang.Stmt, i int) ([]forcelang.Stmt, []*Summary) {
	if k := i - tg.from; k < 0 || k >= len(tg.run) || &tg.run[k] != &list[i] {
		end := i + 1
		for end < len(list) {
			if _, ok := list[end].(*forcelang.ParDo); !ok {
				break
			}
			end++
		}
		tg.run, tg.from = list[i:end], i
		tg.sums = slices.Grow(tg.sums[:0], end-i)[:end-i]
		clear(tg.sums)
	}
	return tg.run[i-tg.from:], tg.sums[i-tg.from:]
}

// summary is the footprint of the DOALL body at position i of the scanned
// list, walked on first need.
func (tg *Target) summary(i int) *Summary {
	k := i - tg.from
	if tg.sums[k] == nil {
		tg.sums[k] = Summarize(tg.run[k].(*forcelang.ParDo).Body)
	}
	return tg.sums[k]
}

// loop is the DOALL t under plan p (nil: nothing proven): its deal —
// deal's, p itself for a lone DOALL, the region's plan for a member — its
// grant sized for the back end and, on one with a span form, the counts of
// its span check.
func (tg *Target) loop(t *forcelang.ParDo, p, deal *Plan) Loop {
	l := Loop{Do: t, Plan: p, Grant: 1, DealtBy: deal}
	switch {
	case t.Sched != forcelang.Presched:
		l.Deal = Self
	case deal != nil && deal.CyclicWhy == "": // mapping-insensitive
		l.Deal = Block
	}
	if p == nil {
		return l
	}
	ns := tg.NsPerUnit
	if p.PerIter == "" && tg.NsPerBlockUnit != 0 {
		ns = tg.NsPerBlockUnit
	}
	l.Grant = grant(p.Cost, ns)
	if tg.NsPerBlockUnit == 0 {
		return l
	}
	for _, a := range p.sum.Accesses() {
		for _, r := range a.Elems {
			if _, ok := p.SpanCheck(r); ok {
				l.SpanChecked++
			}
		}
		l.ElemRefs += len(a.Elems)
	}
	return l
}

// rider returns list[i] when it is a Barrier statement, riding the
// collective that closes in front of it, with what it leaves the
// collective to run (nil when its section is empty: the collective is
// the whole barrier) and the one statement it covers.  The Barrier
// directly behind a DOALL rides its exit synchronization, the one behind
// a region its join, the one behind a reduction into a plain scalar the
// reduction's release.  A closing collective is a full synchronization
// whose completing process runs alone, which is all a barrier section
// asks for, so nothing about the section needs proving; the target must
// be a plain scalar because a back end stores it once, in the completing
// process, before the section runs.
func rider(list []forcelang.Stmt, i int) (bar *forcelang.BarrierStmt, section []forcelang.Stmt, n int) {
	if i < len(list) {
		bar, _ = list[i].(*forcelang.BarrierStmt)
	}
	if bar == nil {
		return nil, nil, 0
	}
	if len(bar.Section) > 0 {
		section = bar.Section
	}
	return bar, section, 1
}

// closing completes the region of one collective once its members, its
// reduction and its rider (any may be missing) are known: the fold and
// who stores it.
func closing(reg Region) Region {
	if reg.Red == nil {
		return reg
	}
	reg.Fold = folds[reg.Red.Op]
	switch st := reg.Red.Target.Sym.Storage; {
	case st == forcelang.SharedScalar:
		reg.Store = StoreOnce
	case reg.Section != nil:
		reg.Store = StoreEachEarly
	case st == forcelang.SharedArray || st == forcelang.Parameter:
		reg.Store = StoreEachSerialised
	default:
		reg.Store = StoreEach
	}
	return reg
}

// scalarTarget reports whether a reduction lands in an unsubscripted
// private or shared scalar — not an array element, whose subscript may
// differ per process, and not a parameter, which may alias either class.
func scalarTarget(red *forcelang.ReduceStmt) bool {
	st := red.Target.Sym.Storage
	return len(red.Target.Subs) == 0 && (st == forcelang.PrivateScalar || st == forcelang.SharedScalar)
}

// Narrate says the node's decisions, one line each as forcerun -v prints
// them after "fuse: ", read off its fields: the fusion decline, each
// DOALL's deal and grant or why it has no plan, what fused, the riding
// Barrier and, last, each DOALL's span check.  A node lowered at Plain
// says nothing.
func (nd *Node) Narrate(say func(string)) {
	line := func(format string, args ...any) { say(fmt.Sprintf("line "+format, args...)) }
	loops, red, rider := nd.Region.Members, nd.Region.Red, nd.Region.Rider
	if nd.Loop.Do != nil {
		loops, rider = []Loop{nd.Loop}, nd.Loop.Rider
	}
	for k, l := range loops {
		t, p := l.Do, l.Plan
		if k == 0 && nd.Declined != "" {
			line("%d: fusion declined: %s", t.Pos(), nd.Declined)
		}
		switch {
		case l.Unplanned != "" && l.Deal == Self:
			line("%d: DOALL grant=1 (not chunk-compiled: %s)", t.Pos(), l.Unplanned)
		case l.Unplanned != "":
			line("%d: DOALL partition=cyclic (not chunk-compiled: %s)", t.Pos(), l.Unplanned)
		case p == nil:
		case l.Deal == Self && p.Cost == 0:
			line("%d: DOALL grant=1 (body cost unbounded)", t.Pos())
		case l.Deal == Self:
			// Literal bounds within one grant above 1: a fixed owner, as
			// core.Proc's selfsched decides from the run-time count.
			trips, ok := literalTrips(t.From, t.To, t.Step)
			if in := t.Inner; in != nil {
				n, ok2 := literalTrips(in.From, in.To, in.Step)
				trips, ok = trips*n, ok && ok2
			}
			if ok && l.Grant > 1 && trips <= l.Grant {
				line("%d: DOALL grant=%d ≥ trip count: process 0 runs it", t.Pos(), l.Grant)
			} else {
				line("%d: DOALL grant=%d", t.Pos(), l.Grant)
			}
		case l.Deal == Block:
			line("%d: DOALL partition=block", t.Pos())
		default:
			line("%d: DOALL partition=cyclic (%s)", t.Pos(), strings.TrimSpace(l.DealtBy.CyclicWhy+" "+l.DealtBy.CyclicName))
		}
	}
	closer, at := "DOALL exit", 0
	switch n := len(nd.Region.Members); {
	case nd.Loop.Do != nil:
		at = nd.Loop.Do.Pos()
	case n == 0 && red != nil:
		closer, at = red.Op.String(), red.Pos()
	case n == 0:
	case red == nil:
		closer, at = "fused join", loops[0].Do.Pos()
		line("%d: fused %d DOALLs, %d exit barrier(s) elided", at, n, n-1)
	default:
		closer, at = red.Op.String()+" join", red.Pos()
		line("%d: fused %d DOALL(s) + %s at line %d into one join", loops[0].Do.Pos(), n, red.Op, at)
	}
	if rider != nil {
		line("%d: Barrier rides the %s at line %d", rider.Pos(), closer, at)
	}
	for _, l := range loops {
		if l.ElemRefs == 0 {
			continue
		}
		how := "block-evaluated"
		if l.Plan.PerIter != "" {
			how = "per iteration (" + l.Plan.PerIter + ")"
		}
		line("%d: DOALL span-checked %d of %d element references, %s", l.Do.Pos(), l.SpanChecked, l.ElemRefs, how)
	}
}
