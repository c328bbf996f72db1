package plan

// The footprint of a statement list and the proofs over it.  Summarize is
// the one walk that records which names a list reads and writes, and how;
// the DOALL classifier (classify.go), the fusion proof (fuse.go), the flow
// analysis (flow.go) and forcevet's race pass (internal/vet) all read the
// record it returns, keyed by the checker's *forcelang.Symbol.  What is
// proven about a name is written once, as a method over the record, and
// each client applies the proofs its question allows:
//
//   - Access.Accumulator: every write of the scalar is one accumulate
//     shape (MatchAccum) over one operator and the scalar is read nowhere
//     else, so its updates commute — every tier executes them atomically
//     and the span tiers may fold them;
//   - Summary.Space(outer, inner).Disjoint(refs): the element references
//     use one affine subscript form, injective on the construct's index
//     space, with a remainder that reads only INTEGER scalars the list
//     never writes (intScalar, the one remainder rule);
//   - Access.OneCritical: every access sits under one Critical name;
//   - Summary.IdempotentStores: the name is only stored to, never read,
//     and every stored value is the same in every iteration and process.

import (
	"fmt"

	"repro/internal/forcelang"
)

// Access is what one statement list does to one symbol.  (Counts are
// int32: a footprint is allocated per loop body, on the cold path every
// forcerun pays.)
type Access struct {
	Sym *forcelang.Symbol

	// Reads and Writes count the reads and the stores of a scalar, or of
	// any element of an array.  Loop indices, Consume / Copy / reduction
	// targets and Call arguments (which escape, so count as read AND
	// written) are stores.
	Reads, Writes int32
	// AccWrites counts the stores MatchAccum recognises, all under Op
	// unless MixedOps (a sum and a MAX of one scalar share no partial).
	AccWrites int32
	// FirstWrite is the line of the first store (0: never stored).
	FirstWrite int32
	Op         AccOp
	MixedOps   bool
	// Varies marks a store whose value may differ between iterations or
	// processes: a loop index, a Consume / Copy / reduction target, a
	// Call argument, or an assigned value that reads private storage or
	// a parameter.
	Varies bool
	// WrittenFirst says the first access in statement order is a store.
	WrittenFirst bool
	// CritMixed says some access sits under another Critical name than
	// Crit, the innermost one enclosing the first access ("" outside any).
	CritMixed bool
	Crit      string

	// Elems holds every element reference, read or written, of a shared
	// array (a whole-array Call argument is a Ref without subscripts: it
	// may hit any element).
	Elems []*forcelang.Ref
}

// Written reports whether the list stores to the symbol (nil: untouched).
func (a *Access) Written() bool { return a != nil && a.Writes > 0 }

// Accumulator reports whether the symbol is a pure accumulator of the
// list, and under which operator: every store is one accumulate shape
// over that operator and each read is the self-reference of one of them
// (MatchAccum admits exactly one), so no mid-list value is observable.
func (a *Access) Accumulator() (AccOp, bool) {
	return a.Op, a.AccWrites > 0 && !a.MixedOps && a.Writes == a.AccWrites && a.Reads == a.AccWrites
}

// OneCritical returns the single Critical name every access sits under,
// or "" (two different locks exclude nothing).
func (a *Access) OneCritical() string {
	if a.CritMixed {
		return ""
	}
	return a.Crit
}

// Summary is the footprint of one statement list.
type Summary struct {
	// NotSpan is why the list cannot run as part of a scheduler span: the
	// first statement, in order, that can block, synchronize, perform
	// I/O, call out or store through an alias ("" when only assignments,
	// IFs and sequential DOs over private indices appear).
	NotSpan string
	// Param says a by-reference parameter is touched: it may alias any
	// shared cell or element, which defeats disjointness and folding.
	Param bool

	order []*Access                     // first-access order
	index map[*forcelang.Symbol]*Access // nil while order is short enough to search
	free  []Access                      // records not handed out yet
	// stores holds the assignments whose value is not known to vary but
	// reads something — shared storage only, so it is the same everywhere
	// exactly when the list never writes what it reads.
	stores []*forcelang.Assign

	// Walk state: the innermost enclosing Critical, how many reads of
	// private-or-parameter and of shared storage were seen so far, and
	// readRef bound once.
	crit                   string
	variesSeen, sharedSeen int
	visit                  func(*forcelang.Ref)

	// Most lists touch a handful of symbols: the first records and the
	// order slice's first backing array come with the Summary itself.
	first  [4]Access
	firstN [searchMax]*Access
}

// searchMax is how many symbols a footprint holds before lookups go
// through a map.
const searchMax = 8

func newSummary() *Summary {
	s := &Summary{}
	s.order, s.free = s.firstN[:0], s.first[:]
	return s
}

// Summarize walks list once and returns its footprint.  Nested construct
// bodies (DOALL, Askfor, Pcase, Barrier, Critical) are part of the list's
// footprint; asynchronous variables are not tracked (they have their own
// protocol), only the subscripts and values their statements read and
// the targets they fill.
func Summarize(list []forcelang.Stmt) *Summary {
	s := newSummary()
	s.visit = s.readRef
	s.stmts(list)
	return s
}

// Of returns the symbol's record, nil when the list never touches it.
func (s *Summary) Of(sym *forcelang.Symbol) *Access {
	if s.index != nil {
		return s.index[sym]
	}
	for _, a := range s.order {
		if a.Sym == sym {
			return a
		}
	}
	return nil
}

// Accesses returns every touched symbol's record in first-access order.
func (s *Summary) Accesses() []*Access { return s.order }

// Written reports whether the list stores to the symbol.
func (s *Summary) Written(sym *forcelang.Symbol) bool { return s.Of(sym).Written() }

// intScalar is the remainder rule of the disjointness proof: an INTEGER
// private or shared scalar (never a parameter) the list does not write
// reads the same value in every iteration a process executes.
func (s *Summary) intScalar(r *forcelang.Ref) bool {
	st := r.Sym.Storage
	return r.Sym.Type == forcelang.TInt && !s.Written(r.Sym) &&
		(st == forcelang.PrivateScalar || st == forcelang.SharedScalar)
}

// Space is the index space of a construct over the summarised body
// (inner nil for one index), carrying the remainder rule above.
func (s *Summary) Space(outer, inner *forcelang.Symbol) *Space {
	return &Space{outer: outer, inner: inner, intScalar: s.intScalar}
}

// IdempotentStores reports whether the symbol is only stored to, never
// read, with every stored value construct-uniform — literals and reads
// of shared storage the list never writes (an unwritten private is
// iteration-stable but may differ across processes) — so concurrent
// stores all leave the same value.
func (s *Summary) IdempotentStores(sym *forcelang.Symbol) bool {
	a := s.Of(sym)
	if !a.Written() || a.Reads > 0 || a.Varies {
		return false
	}
	same := true
	for _, t := range s.stores {
		if t.Target.Sym == sym {
			walk(t.Expr, func(r *forcelang.Ref) { same = same && !s.Written(r.Sym) })
		}
	}
	return same
}

// merge returns the footprint of the concatenation of the summarised
// lists, without walking them again.
func merge(sums []*Summary) *Summary {
	if len(sums) == 1 {
		return sums[0]
	}
	out := newSummary()
	for _, s := range sums {
		if out.NotSpan == "" {
			out.NotSpan = s.NotSpan
		}
		out.Param = out.Param || s.Param
		out.stores = append(out.stores, s.stores...)
		for _, a := range s.order {
			m, fresh := out.record(a.Sym)
			if fresh {
				*m = *a
				m.Elems = m.Elems[:len(m.Elems):len(m.Elems)] // appends must not reach a's array
				continue
			}
			m.MixedOps = m.MixedOps || a.MixedOps || (m.AccWrites > 0 && a.AccWrites > 0 && m.Op != a.Op)
			if m.AccWrites == 0 {
				m.Op = a.Op
			}
			m.Reads, m.Writes, m.AccWrites = m.Reads+a.Reads, m.Writes+a.Writes, m.AccWrites+a.AccWrites
			m.Elems, m.Varies = append(m.Elems, a.Elems...), m.Varies || a.Varies
			m.CritMixed = m.CritMixed || a.CritMixed || m.Crit != a.Crit
			if m.FirstWrite == 0 {
				m.FirstWrite = a.FirstWrite
			}
		}
	}
	return out
}

// --- the walk ----------------------------------------------------------

func (s *Summary) notSpan(format string, args ...any) {
	if s.NotSpan == "" {
		s.NotSpan = fmt.Sprintf(format, args...)
	}
}

// record returns sym's record and whether this call created it (zeroed
// but for Sym).
func (s *Summary) record(sym *forcelang.Symbol) (a *Access, fresh bool) {
	if a = s.Of(sym); a != nil {
		return a, false
	}
	if len(s.free) == 0 {
		s.free = make([]Access, 4)
	}
	a, s.free = &s.free[0], s.free[1:]
	a.Sym = sym
	s.order = append(s.order, a)
	if s.index != nil {
		s.index[sym] = a
	} else if len(s.order) > searchMax {
		s.index = make(map[*forcelang.Symbol]*Access, 2*searchMax)
		for _, o := range s.order {
			s.index[o.Sym] = o
		}
	}
	return a, true
}

// touch records one access of sym under the current Critical.
func (s *Summary) touch(sym *forcelang.Symbol, write bool) *Access {
	if sym.Storage == forcelang.Parameter {
		s.Param = true
	}
	a, fresh := s.record(sym)
	if fresh {
		a.Crit, a.WrittenFirst = s.crit, write
	} else if a.Crit != s.crit {
		a.CritMixed = true
	}
	return a
}

// read records every reference inside e, subscripts included.
func (s *Summary) read(e forcelang.Expr) { walk(e, s.visit) }

func (s *Summary) readRef(r *forcelang.Ref) {
	a := s.touch(r.Sym, false)
	a.Reads++
	if r.Sym.Storage == forcelang.SharedArray {
		a.Elems = append(a.Elems, r)
	}
	if r.Sym.Storage == forcelang.Parameter || !r.Sym.Class.IsShared() {
		s.variesSeen++
	} else {
		s.sharedSeen++
	}
}

// write records one store at line, through r when the statement names
// the target as a reference (a loop header names only the symbol), whose
// subscripts it then reads.
func (s *Summary) write(sym *forcelang.Symbol, r *forcelang.Ref, line int) *Access {
	a := s.touch(sym, true)
	a.Writes++
	if a.FirstWrite == 0 {
		a.FirstWrite = int32(line)
	}
	if r != nil {
		if sym.Storage == forcelang.SharedArray {
			a.Elems = append(a.Elems, r)
		}
		for _, sub := range r.Subs {
			s.read(sub)
		}
	}
	return a
}

func (s *Summary) stmts(list []forcelang.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *Summary) stmt(st forcelang.Stmt) {
	// Everything but Assign, IF and DO can block, synchronize, perform
	// I/O or call out — per-iteration semantics must be preserved exactly.
	// Such a statement is named, first thing, as the language spells it.
	switch t := st.(type) {
	case *forcelang.Assign:
		if t.Target.Sym.Storage == forcelang.Parameter {
			// A parameter aliases unknown caller storage; writing through
			// it defeats every disjointness and ordering argument.
			s.notSpan("assignment through parameter %s", t.Target.Name)
		}
		a := s.write(t.Target.Sym, &t.Target, t.Pos())
		if acc, ok := MatchAccum(t); ok {
			a.MixedOps = a.MixedOps || (a.AccWrites > 0 && a.Op != acc.Op)
			a.Op = acc.Op
			a.AccWrites++
		}
		varies, shared := s.variesSeen, s.sharedSeen
		s.read(t.Expr)
		if s.variesSeen > varies {
			a.Varies = true
		} else if s.sharedSeen > shared {
			s.stores = append(s.stores, t)
		}
	case *forcelang.If:
		s.read(t.Cond)
		s.stmts(t.Then)
		s.stmts(t.Else)
	case *forcelang.SeqDo:
		if t.VarSym.Storage != forcelang.PrivateScalar {
			s.notSpan("sequential DO index %s is not a private scalar", t.Var)
		}
		s.loop(t.VarSym, t.From, t.To, t.Step, t.Pos())
		s.stmts(t.Body)
	case *forcelang.WhileDo:
		s.notSpan("DO WHILE in body")
		s.read(t.Cond)
		s.stmts(t.Body)
	case *forcelang.CriticalStmt:
		s.notSpan("Critical in body")
		outer := s.crit
		s.crit = t.Name
		s.stmts(t.Body)
		s.crit = outer
	case *forcelang.ParDo:
		s.notSpan("%s DO in body", t.Sched)
		s.loop(t.VarSym, t.From, t.To, t.Step, t.Pos())
		if t.Inner != nil {
			s.loop(t.Inner.VarSym, t.Inner.From, t.Inner.To, t.Inner.Step, t.Pos())
		}
		s.stmts(t.Body)
	case *forcelang.AskforStmt:
		s.notSpan("Askfor in body")
		s.loop(t.VarSym, t.Seed, nil, nil, t.Pos())
		s.stmts(t.Body)
	case *forcelang.BarrierStmt:
		s.notSpan("Barrier in body")
		s.stmts(t.Section)
	case *forcelang.PcaseStmt:
		s.notSpan("Pcase in body")
		for _, b := range t.Blocks {
			s.read(b.Cond)
			s.stmts(b.Body)
		}
	case *forcelang.ReduceStmt:
		s.notSpan("%s in body", t.Op)
		s.read(t.Expr)
		s.write(t.Target.Sym, &t.Target, t.Pos()).Varies = true
	case *forcelang.PutStmt:
		s.notSpan("Put in body")
		s.read(t.Expr)
	case *forcelang.PrintStmt:
		s.notSpan("Print in body")
		for _, item := range t.Items {
			s.read(item)
		}
	case *forcelang.ProduceStmt:
		s.notSpan("Produce in body")
		s.read(t.Sub)
		s.read(t.Expr)
	case *forcelang.ConsumeStmt:
		s.notSpan("Consume in body")
		s.read(t.Sub)
		s.write(t.Target.Sym, &t.Target, t.Pos()).Varies = true
	case *forcelang.CopyStmt:
		s.notSpan("Copy in body")
		s.read(t.Sub)
		s.write(t.Target.Sym, &t.Target, t.Pos()).Varies = true
	case *forcelang.VoidStmt:
		s.notSpan("Void in body")
		s.read(t.Sub)
	case *forcelang.CallStmt:
		s.notSpan("Call in body")
		// A by-reference argument escapes into the callee, which may
		// read or write it arbitrarily: record both.
		for i := range t.Args {
			r := &t.Args[i]
			a := s.write(r.Sym, r, t.Pos())
			a.Reads++
			a.Varies = true
		}
	}
}

// loop records a loop header: the index is stored to, with a different
// value each time round, and the bounds are read.
func (s *Summary) loop(index *forcelang.Symbol, from, to, step forcelang.Expr, line int) {
	s.write(index, nil, line).Varies = true
	s.read(from)
	s.read(to)
	s.read(step)
}
