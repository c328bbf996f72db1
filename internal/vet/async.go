package vet

// The asyncvar protocol pass: FV201 and FV202.
//
// An async variable is a HEP-style full/empty cell: Produce fills it
// (blocking while full), Consume empties it (blocking while empty),
// Copy reads it without emptying, Void force-empties it.  Two protocol
// breaks are statically visible:
//
//	FV201  a Consume or Copy of a variable no statement in the whole
//	       program ever Produces — the consumer blocks forever and
//	       only the hang detector (or a deadline) frees it;
//	FV202  two Produces of the same cell on one straight-line path
//	       with no intervening Consume or Void — the second Produce
//	       blocks on its own full cell.
//
// FV201 is whole-program: the checker rejects Async parameters, so an
// async name in any unit resolves to exactly one declaration (one
// forcelang.Symbol), and "ever produced" is decidable by a full walk
// keyed on it.
// FV202 is deliberately local: it only tracks straight-line statement
// runs (array subscripts compared by canonical form) and forgets all
// state at any compound statement, since another process may Consume in
// between across any synchronization point.

import (
	"repro/internal/forcelang"
	"repro/internal/plan"
)

// asyncPass runs FV201/FV202 over every unit.
func (a *analysis) asyncPass(units [][]forcelang.Stmt) {
	produced := map[*forcelang.Symbol]bool{}
	for _, body := range units {
		a.collectProduced(body, produced)
	}
	for _, body := range units {
		a.checkConsumes(body, produced)
	}
	for _, body := range units {
		a.doubleProduce(body)
	}
}

func (a *analysis) collectProduced(list []forcelang.Stmt, produced map[*forcelang.Symbol]bool) {
	forcelang.EachStmt(list, func(st forcelang.Stmt) {
		if t, ok := st.(*forcelang.ProduceStmt); ok {
			produced[t.Sym] = true
		}
	})
}

func (a *analysis) checkConsumes(list []forcelang.Stmt, produced map[*forcelang.Symbol]bool) {
	forcelang.EachStmt(list, func(st forcelang.Stmt) {
		switch t := st.(type) {
		case *forcelang.ConsumeStmt:
			if !produced[t.Sym] {
				a.report("FV201", Error, t.Pos(),
					"Consume of async variable %s, which is never Produced", t.Var)
			}
		case *forcelang.CopyStmt:
			if !produced[t.Sym] {
				a.report("FV201", Error, t.Pos(),
					"Copy of async variable %s, which is never Produced", t.Var)
			}
		}
	})
}

// asyncCell names one full/empty cell: the variable and, for an element,
// its subscript's canonical form.
type asyncCell struct {
	sym *forcelang.Symbol
	sub string
}

// doubleProduce flags FV202 per straight-line run.  State maps a cell to
// "full"; any compound statement clears it (a barrier, loop or branch
// may interleave another process's Consume), and each nested body starts
// fresh.
func (a *analysis) doubleProduce(list []forcelang.Stmt) {
	full := map[asyncCell]bool{}
	cellKey := func(d *forcelang.Symbol, sub forcelang.Expr) asyncCell {
		if sub == nil {
			return asyncCell{sym: d}
		}
		return asyncCell{d, plan.Canon(sub)}
	}
	for _, st := range list {
		switch t := st.(type) {
		case *forcelang.ProduceStmt:
			k := cellKey(t.Sym, t.Sub)
			if full[k] {
				a.report("FV202", Warning, t.Pos(),
					"second Produce of %s without an intervening Consume or Void", t.Var)
			}
			full[k] = true
		case *forcelang.ConsumeStmt:
			delete(full, cellKey(t.Sym, t.Sub))
		case *forcelang.VoidStmt:
			delete(full, cellKey(t.Sym, t.Sub))
		case *forcelang.CopyStmt, *forcelang.Assign, *forcelang.PrintStmt, *forcelang.PutStmt:
			// No effect on full/empty state.
		default:
			// A compound statement (loop, branch, barrier, ...) may
			// resequence other processes: forget everything and give
			// each nested body its own straight-line analysis.
			full = map[asyncCell]bool{}
			forcelang.EachBody(st, a.doubleProduce)
		}
	}
}
