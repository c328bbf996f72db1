package vet

// The race pass: FV101 over every parallel construct body.  Inside a
// DOALL body, an Askfor task body, or across Pcase blocks, distinct
// processes execute concurrently, so a shared scalar or array write is
// flagged unless one of the proofs the chunk compiler also relies on
// applies:
//
//   - every access to the name sits inside one Critical section (one
//     name — two different locks exclude nothing);
//   - the scalar is a pure integer accumulator: every write has the
//     shape S = S ± e and the scalar is never read outside those
//     self-references (the runtime folds these deterministically);
//   - the array's accesses use one affine subscript form, injective on
//     the construct's index space (internal/uniform's disjointness
//     proof), after substituting body-local single-assignment index
//     temporaries (K = I + 1; A(K - 1) = ... is as disjoint as A(I));
//   - the name is only written, never read, and every stored value is
//     construct-uniform (the same in every iteration and process), so
//     the stores are idempotent.
//
// By-reference parameters are skipped: a parameter may alias anything,
// and its caller owns the synchronization story.

import (
	"repro/internal/forcelang"
	"repro/internal/shm"
	"repro/internal/uniform"
)

// racePass walks a unit finding parallel construct bodies.
func (a *analysis) racePass(u *unitInfo) {
	a.raceStmts(u.body)
}

func (a *analysis) raceStmts(list []forcelang.Stmt) {
	for _, st := range list {
		switch t := st.(type) {
		case *forcelang.If:
			a.raceStmts(t.Then)
			a.raceStmts(t.Else)
		case *forcelang.SeqDo:
			a.raceStmts(t.Body)
		case *forcelang.WhileDo:
			a.raceStmts(t.Body)
		case *forcelang.ParDo:
			inner := ""
			if t.Inner != nil {
				inner = t.Inner.Var
			}
			a.raceBody(t.Body, t.Var, inner, t.Sched.String()+" DO")
		case *forcelang.AskforStmt:
			a.raceBody(t.Body, "", "", "Askfor")
		case *forcelang.PcaseStmt:
			a.racePcase(t)
		case *forcelang.BarrierStmt:
			a.raceStmts(t.Section)
		case *forcelang.CriticalStmt:
			a.raceStmts(t.Body)
		}
	}
}

// scalarAcc accumulates one shared scalar's accesses in a body.
type scalarAcc struct {
	reads, writes      int
	accWrites, selfRef int
	crits              map[string]bool // critical context of each access ("" = none)
	firstWrite         int
	valuesUniform      bool // every written value is construct-uniform
}

// arrayAcc accumulates one shared array's accesses in a body.
type arrayAcc struct {
	uses          []*forcelang.Ref
	writes        int
	crits         map[string]bool
	firstWrite    int
	valuesUniform bool
}

// collector walks one parallel body.
type collector struct {
	outer   string // loop index names ("" when absent)
	inner   string
	written map[string]bool // every name the body may write
	scalars map[string]*scalarAcc
	arrays  map[string]*arrayAcc
	// substOnce counts assignments per private scalar; subst holds the
	// single unconditional top-level affine RHS for substitution.
	assignCount map[string]int
	subst       map[string]forcelang.Expr
}

func (a *analysis) newCollector(body []forcelang.Stmt, outer, inner string) *collector {
	c := &collector{
		outer: outer, inner: inner,
		written:     map[string]bool{},
		scalars:     map[string]*scalarAcc{},
		arrays:      map[string]*arrayAcc{},
		assignCount: map[string]int{},
		subst:       map[string]forcelang.Expr{},
	}
	writtenNames(body, c.written)
	if outer != "" {
		c.written[outer] = true
	}
	if inner != "" {
		c.written[inner] = true
	}
	c.countAssigns(body)
	return c
}

func (c *collector) countAssigns(list []forcelang.Stmt) {
	for _, st := range list {
		switch t := st.(type) {
		case *forcelang.Assign:
			if len(t.Target.Subs) == 0 {
				c.assignCount[t.Target.Name]++
			}
		case *forcelang.If:
			c.countAssigns(t.Then)
			c.countAssigns(t.Else)
		case *forcelang.SeqDo:
			c.countAssigns(t.Body)
		case *forcelang.WhileDo:
			c.countAssigns(t.Body)
		case *forcelang.CriticalStmt:
			c.countAssigns(t.Body)
		}
	}
}

// unwrittenIntScalar is the disjointness space's remainder rule: an
// unwritten, non-parameter INTEGER scalar reads the same value in
// every iteration.
func (c *collector) unwrittenIntScalar(r *forcelang.Ref) bool {
	d := r.Sym
	if c.written[r.Name] || isParam(d) || len(d.Dims) > 0 || d.Type != forcelang.TInt {
		return false
	}
	return d.Class == shm.Private || d.Class == shm.Shared
}

// valueUniform reports whether an expression evaluates identically in
// every iteration and every process: literals and reads of unwritten
// shared storage only (an unwritten private scalar is iteration-stable
// but may still differ across processes).
func (c *collector) valueUniform(e forcelang.Expr) bool {
	ok := true
	uniform.Walk(e, func(r *forcelang.Ref) {
		if isParam(r.Sym) || c.written[r.Name] || !r.Sym.Class.IsShared() {
			ok = false
			return
		}
		for _, s := range r.Subs {
			if !c.valueUniform(s) {
				ok = false
			}
		}
	})
	return ok
}

func (c *collector) scalar(name string) *scalarAcc {
	key := name
	s, ok := c.scalars[key]
	if !ok {
		s = &scalarAcc{crits: map[string]bool{}, valuesUniform: true}
		c.scalars[key] = s
	}
	return s
}

func (c *collector) array(name string) *arrayAcc {
	key := name
	arr, ok := c.arrays[key]
	if !ok {
		arr = &arrayAcc{crits: map[string]bool{}, valuesUniform: true}
		c.arrays[key] = arr
	}
	return arr
}

// reads records every shared access inside an expression.
func (c *collector) reads(e forcelang.Expr, crit string) {
	uniform.Walk(e, func(r *forcelang.Ref) {
		if isParam(r.Sym) || r.Sym.Class != shm.Shared {
			return
		}
		if len(r.Subs) == 0 {
			s := c.scalar(r.Name)
			s.reads++
			s.crits[crit] = true
			return
		}
		arr := c.array(r.Name)
		arr.uses = append(arr.uses, r)
		arr.crits[crit] = true
	})
}

// collect walks the body recording accesses; crit is the innermost
// enclosing Critical name ("" outside any).
func (c *collector) collect(list []forcelang.Stmt, crit string) {
	for _, st := range list {
		switch t := st.(type) {
		case *forcelang.Assign:
			c.assign(t, crit)
		case *forcelang.If:
			c.reads(t.Cond, crit)
			c.collect(t.Then, crit)
			c.collect(t.Else, crit)
		case *forcelang.SeqDo:
			c.reads(t.From, crit)
			c.reads(t.To, crit)
			if t.Step != nil {
				c.reads(t.Step, crit)
			}
			c.collect(t.Body, crit)
		case *forcelang.WhileDo:
			c.reads(t.Cond, crit)
			c.collect(t.Body, crit)
		case *forcelang.CriticalStmt:
			c.collect(t.Body, t.Name)
		case *forcelang.PutStmt:
			c.reads(t.Expr, crit)
		case *forcelang.PrintStmt:
			for _, item := range t.Items {
				c.reads(item, crit)
			}
		case *forcelang.ProduceStmt:
			if t.Sub != nil {
				c.reads(t.Sub, crit)
			}
			c.reads(t.Expr, crit)
		case *forcelang.ConsumeStmt:
			c.asyncTarget(t.Sub, &t.Target, crit)
		case *forcelang.CopyStmt:
			c.asyncTarget(t.Sub, &t.Target, crit)
		case *forcelang.VoidStmt:
			if t.Sub != nil {
				c.reads(t.Sub, crit)
			}
		case *forcelang.CallStmt:
			// A shared argument escapes into the callee, which may
			// read or write it arbitrarily: record both.
			for i := range t.Args {
				r := &t.Args[i]
				for _, s := range r.Subs {
					c.reads(s, crit)
				}
				d := r.Sym
				if isParam(d) || d.Class != shm.Shared {
					continue
				}
				if len(d.Dims) == 0 {
					s := c.scalar(r.Name)
					s.reads++
					s.writes++
					s.crits[crit] = true
					s.valuesUniform = false
					if s.firstWrite == 0 {
						s.firstWrite = t.Pos()
					}
				} else {
					arr := c.array(r.Name)
					arr.writes++
					arr.crits[crit] = true
					arr.valuesUniform = false
					if arr.firstWrite == 0 {
						arr.firstWrite = t.Pos()
					}
					if len(r.Subs) > 0 {
						arr.uses = append(arr.uses, r)
					} else {
						// Whole-array pass: any element may be hit.
						arr.uses = append(arr.uses, &forcelang.Ref{Name: r.Name})
					}
				}
			}
		}
	}
}

func (c *collector) asyncTarget(sub forcelang.Expr, target *forcelang.Ref, crit string) {
	if sub != nil {
		c.reads(sub, crit)
	}
	for _, s := range target.Subs {
		c.reads(s, crit)
	}
	if d := target.Sym; !isParam(d) && d.Class == shm.Shared {
		if len(target.Subs) == 0 {
			s := c.scalar(target.Name)
			s.writes++
			s.crits[crit] = true
			s.valuesUniform = false
			if s.firstWrite == 0 {
				s.firstWrite = target.Pos()
			}
		} else {
			arr := c.array(target.Name)
			arr.writes++
			arr.uses = append(arr.uses, target)
			arr.crits[crit] = true
			arr.valuesUniform = false
			if arr.firstWrite == 0 {
				arr.firstWrite = target.Pos()
			}
		}
	}
}

func (c *collector) assign(t *forcelang.Assign, crit string) {
	c.reads(t.Expr, crit)
	for _, s := range t.Target.Subs {
		c.reads(s, crit)
	}
	name, d := t.Target.Name, t.Target.Sym
	if isParam(d) {
		return
	}
	// Record the substitution candidate: a private scalar assigned
	// exactly once in the body, with an index-affine RHS.
	if d.Storage == forcelang.PrivateScalar && d.Type == forcelang.TInt && c.assignCount[name] == 1 {
		sp := &uniform.Space{Outer: c.outer, Inner: c.inner, IntScalar: c.unwrittenIntScalar}
		if _, _, ok := sp.Coef(t.Expr); ok {
			c.subst[name] = t.Expr
		}
	}
	if d.Class != shm.Shared {
		return
	}
	if len(t.Target.Subs) == 0 {
		s := c.scalar(name)
		s.writes++
		s.crits[crit] = true
		if s.firstWrite == 0 {
			s.firstWrite = t.Pos()
		}
		if !c.valueUniform(t.Expr) {
			s.valuesUniform = false
		}
		// Accumulator shape: S = S ± e, INTEGER, e not reading S.
		if d.Type == forcelang.TInt && t.Expr.Type() == forcelang.TInt {
			if delta, _, ok := uniform.AccumDelta(name, t.Expr); ok && !uniform.RefersTo(delta, name) {
				s.accWrites++
				s.selfRef++
			}
		}
		return
	}
	arr := c.array(name)
	arr.writes++
	arr.uses = append(arr.uses, &t.Target)
	arr.crits[crit] = true
	if arr.firstWrite == 0 {
		arr.firstWrite = t.Pos()
	}
	if !c.valueUniform(t.Expr) {
		arr.valuesUniform = false
	}
}

// substRef returns a copy of r with substitution temporaries replaced
// by their defining affine expressions inside the subscripts.
func (c *collector) substRef(r *forcelang.Ref) *forcelang.Ref {
	if len(c.subst) == 0 || len(r.Subs) == 0 {
		return r
	}
	subs := make([]forcelang.Expr, len(r.Subs))
	for i, s := range r.Subs {
		subs[i] = c.substExpr(s)
	}
	return &forcelang.Ref{Name: r.Name, Subs: subs}
}

func (c *collector) substExpr(e forcelang.Expr) forcelang.Expr {
	switch t := e.(type) {
	case *forcelang.Ref:
		if len(t.Subs) == 0 {
			if rhs, ok := c.subst[t.Name]; ok {
				return rhs
			}
		}
		return t
	case *forcelang.Un:
		return &forcelang.Un{Neg: t.Neg, X: c.substExpr(t.X)}
	case *forcelang.Bin:
		return &forcelang.Bin{Op: t.Op, L: c.substExpr(t.L), R: c.substExpr(t.R)}
	case *forcelang.Intrinsic:
		args := make([]forcelang.Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.substExpr(a)
		}
		return &forcelang.Intrinsic{Name: t.Name, Args: args}
	default:
		return e
	}
}

// oneCritical reports whether every access sits under the same single
// Critical name.
func oneCritical(crits map[string]bool) bool {
	return len(crits) == 1 && !crits[""]
}

// raceBody flags FV101 in one parallel construct body.
func (a *analysis) raceBody(body []forcelang.Stmt, outer, inner, construct string) {
	c := a.newCollector(body, outer, inner)
	c.collect(body, "")
	for name, s := range c.scalars {
		if s.writes == 0 || oneCritical(s.crits) {
			continue
		}
		if s.accWrites == s.writes && s.reads == s.selfRef {
			continue // pure integer accumulator
		}
		if s.reads == 0 && s.valuesUniform {
			continue // idempotent same-value stores
		}
		a.report("FV101", Warning, s.firstWrite,
			"shared %s written in %s body outside Critical: not provably race-free", name, construct)
	}
	sp := &uniform.Space{Outer: outer, Inner: inner, IntScalar: c.unwrittenIntScalar}
	for name, arr := range c.arrays {
		if arr.writes == 0 || oneCritical(arr.crits) {
			continue
		}
		if outer != "" {
			refs := make([]*forcelang.Ref, len(arr.uses))
			disjoint := true
			for i, r := range arr.uses {
				if len(r.Subs) == 0 {
					disjoint = false // whole-array escape
					break
				}
				refs[i] = c.substRef(r)
			}
			if disjoint && sp.Disjoint(refs) {
				continue // provably element-disjoint across iterations
			}
		}
		if arr.valuesUniform {
			onlyWrites := arr.writes == len(arr.uses)
			if onlyWrites {
				continue // idempotent same-value stores
			}
		}
		a.report("FV101", Warning, arr.firstWrite,
			"shared %s written in %s body outside Critical: not provably race-free", name, construct)
	}
}

// racePcase flags cross-block conflicts: two Pcase blocks run in
// different processes concurrently, so a name written in one block and
// touched in another needs one common Critical.
func (a *analysis) racePcase(t *forcelang.PcaseStmt) {
	type blockAcc struct {
		scalars map[string]*scalarAcc
		arrays  map[string]*arrayAcc
	}
	accs := make([]blockAcc, len(t.Blocks))
	for i, b := range t.Blocks {
		c := a.newCollector(b.Body, "", "")
		if b.Cond != nil {
			c.reads(b.Cond, "")
		}
		c.collect(b.Body, "")
		accs[i] = blockAcc{scalars: c.scalars, arrays: c.arrays}
	}
	flagged := map[string]bool{}
	for i := range accs {
		for name, s := range accs[i].scalars {
			if s.writes == 0 || flagged[name] {
				continue
			}
			for j := range accs {
				if j == i {
					continue
				}
				o, ok := accs[j].scalars[name]
				if !ok {
					continue
				}
				crits := map[string]bool{}
				for k := range s.crits {
					crits[k] = true
				}
				for k := range o.crits {
					crits[k] = true
				}
				if !oneCritical(crits) {
					flagged[name] = true
					a.report("FV101", Warning, s.firstWrite,
						"shared %s written in one Pcase block and accessed in another without a common Critical", name)
					break
				}
			}
		}
		for name, arr := range accs[i].arrays {
			if arr.writes == 0 || flagged[name] {
				continue
			}
			for j := range accs {
				if j == i {
					continue
				}
				o, ok := accs[j].arrays[name]
				if !ok {
					continue
				}
				crits := map[string]bool{}
				for k := range arr.crits {
					crits[k] = true
				}
				for k := range o.crits {
					crits[k] = true
				}
				if !oneCritical(crits) {
					flagged[name] = true
					a.report("FV101", Warning, arr.firstWrite,
						"shared %s written in one Pcase block and accessed in another without a common Critical", name)
					break
				}
			}
		}
	}
}
