package forcelang

import (
	"fmt"
	"slices"
)

// Scope is the resolved symbol table of one compilation unit (the main
// program or a subroutine body): every name visible in the unit, bound
// to its Symbol.  The checker builds each unit's scope exactly once and
// leaves it on the Program / Subroutine; nothing downstream rebuilds one.
type Scope struct {
	vars   map[string]*Symbol
	own    []*Symbol
	params []*Symbol
	slots  slotCounters
}

// Lookup resolves a name (upper case, as the lexer produces identifiers)
// in the scope.
func (s *Scope) Lookup(name string) (*Symbol, bool) {
	sym, ok := s.vars[name]
	return sym, ok
}

// Names returns the visible names (unspecified order).
func (s *Scope) Names() []string {
	out := make([]string, 0, len(s.vars))
	for n := range s.vars {
		out = append(out, n)
	}
	return out
}

// Own returns the symbols the unit itself introduces, in declaration
// order: the header variables it owns first (NP and the ident variable
// for the main program, the ident variable alone for a subroutine), then
// its declarations.  Inherited (COMMON-like) names are not listed; they
// are the main unit's own.
func (s *Scope) Own() []*Symbol { return s.own }

// Params returns a subroutine's parameter symbols in positional order
// (nil for the main program).
func (s *Scope) Params() []*Symbol { return s.params }

// Slots returns how many slots the unit numbers in st's sequence, or for
// Parameter how many parameters it has.
func (s *Scope) Slots(st Storage) int {
	if st == Parameter {
		return len(s.params)
	}
	return s.slots[st]
}

// storageOf is the storage a declaration implies for every name that is
// not a parameter.
func storageOf(d Decl) Storage {
	switch {
	case d.Class == Async:
		return AsyncVar
	case d.Class == Shared && len(d.Dims) > 0:
		return SharedArray
	case d.Class == Shared:
		return SharedScalar
	case len(d.Dims) > 0:
		return PrivateArray
	default:
		return PrivateScalar
	}
}

// slotCounters numbers a unit's declarations per storage sequence:
// shared scalars, shared arrays, async variables, private scalars and
// private arrays each count independently.
type slotCounters [AsyncVar + 1]int

// next assigns the next slot of st's sequence.
func (sc *slotCounters) next(st Storage) int {
	slot := sc[st]
	sc[st]++
	return slot
}

// Check runs semantic analysis — declaration consistency, name
// resolution, type checking, async-variable usage rules, call-site
// validation — and records what it resolved on the tree: each unit's
// Scope, the Symbol behind every name a node mentions and the type of
// every expression.  It follows the Force model: shared and async
// variables are global (COMMON-like) and visible inside subroutines;
// private main-program variables are not.
func Check(prog *Program) error {
	c := &checker{prog: prog}
	prog.Scope = nil
	for _, sub := range prog.Subs {
		sub.Scope = nil
	}
	global, err := c.buildScope("", prog.Decls, nil, nil)
	if err != nil {
		return err
	}
	prog.Scope = global
	if err := c.stmts(prog.Body, global); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, sub := range prog.Subs {
		if seen[sub.Name] {
			return fmt.Errorf("line %d: duplicate subroutine %s", sub.Line, sub.Name)
		}
		seen[sub.Name] = true
		scope, err := c.subScope(sub)
		if err != nil {
			return err
		}
		if err := c.stmts(sub.Body, scope); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog   *Program
	askfor int // nesting depth of Askfor bodies; Put is legal only inside one
	// serial is the stack of enclosing single-stream contexts — Askfor
	// task bodies, Critical bodies, barrier sections, Pcase blocks.
	// Collective constructs (Barrier, DOALLs, Pcase, Askfor) are
	// rejected inside them: only one process (or a serialized one)
	// would reach the construct while its SPMD peers are blocked on the
	// enclosing lock/barrier/pool, deadlocking the force.
	serial   []string
	inCalls  map[string]bool // subs on the current re-check path (cycle guard)
	serialOK map[string]bool // subs proven free of collective constructs
}

// collective rejects a collective construct when inside a single-stream
// context.
func (c *checker) collective(line int, what string) error {
	if n := len(c.serial); n > 0 {
		return fmt.Errorf("line %d: %s inside %s (single-stream context)", line, what, c.serial[n-1])
	}
	return nil
}

// doName and doBody spell a DOALL in the single-stream messages, built
// once rather than for every DOALL checked.
var (
	doName = [...]string{Presched: Presched.String() + " DO", Selfsched: Selfsched.String() + " DO"}
	doBody = [...]string{Presched: "a " + doName[Presched] + " body", Selfsched: "a " + doName[Selfsched] + " body"}
)

// inSerial runs check under an additional single-stream context.
func (c *checker) inSerial(ctx string, check func() error) error {
	c.serial = append(c.serial, ctx)
	err := check()
	c.serial = c.serial[:len(c.serial)-1]
	return err
}

// buildScope assembles the scope of the unit named unit ("" for the main
// program) from its declarations.  base is the main program's scope when
// building a subroutine's: its shared and async symbols are inherited by
// pointer (COMMON-like), NP among them.  params are the subroutine's
// parameter names.
//
// Every declaration becomes one Symbol carrying its owning unit, its
// storage and its slot — the index-addressed identity the back ends
// execute against.  NP is shared-scalar slot 0 of the main unit, the
// ident variable private-scalar slot 0 of every unit; a unit's own
// declarations number from there in declaration order, per storage
// sequence.  A subroutine may redeclare (shadow) an inherited shared
// name; no unit may redeclare NP or the ident variable, or declare one
// name twice.
func (c *checker) buildScope(unit string, decls []Decl, base *Scope, params []string) (*Scope, error) {
	n := len(decls) + 2
	s := &Scope{vars: make(map[string]*Symbol, n), own: make([]*Symbol, 0, n), params: make([]*Symbol, len(params))}
	// The unit's records share one allocation; it never grows past its
	// capacity, so they do not move.
	slab := make([]Symbol, 0, n)
	add := func(rec Symbol) *Symbol {
		slab = append(slab, rec)
		sym := &slab[len(slab)-1]
		s.vars[sym.Name] = sym
		s.own = append(s.own, sym)
		return sym
	}
	var slots slotCounters
	np, me := c.prog.NPVar, c.prog.MeVar
	if base == nil {
		if np == me {
			return nil, fmt.Errorf("force header: NP variable and ident variable are both %s", np)
		}
		add(Symbol{Decl: Decl{Class: Shared, Type: TInt, Name: np, Slot: slots.next(SharedScalar)},
			Storage: SharedScalar, Role: RoleNP, Param: -1})
	} else {
		for name, sym := range base.vars {
			if sym.Class.IsShared() {
				s.vars[name] = sym
			}
		}
	}
	add(Symbol{Decl: Decl{Class: Private, Type: TInt, Name: me, Unit: unit, Slot: slots.next(PrivateScalar)},
		Storage: PrivateScalar, Role: RoleIdent, Param: -1})
	for _, d := range decls {
		if prior, dup := s.vars[d.Name]; dup {
			if prior.Role != RoleNone {
				return nil, fmt.Errorf("line %d: %s is the force's %s variable and cannot be redeclared", d.Line, d.Name, prior.Role)
			}
			if prior.Unit == unit {
				return nil, fmt.Errorf("line %d: %s already declared (line %d)", d.Line, d.Name, prior.Line)
			}
		}
		if d.Class == Async {
			if len(d.Dims) > 1 {
				return nil, fmt.Errorf("line %d: async variable %s may have at most one dimension", d.Line, d.Name)
			}
			if d.Type == TLogical {
				return nil, fmt.Errorf("line %d: async variable %s must be numeric", d.Line, d.Name)
			}
		}
		sym := add(Symbol{Decl: d, Storage: storageOf(d), Param: -1})
		sym.Unit = unit
		sym.Slot = slots.next(sym.Storage)
		for i, p := range params {
			if p == d.Name {
				sym.Storage, sym.Param = Parameter, i
				s.params[i] = sym
			}
		}
	}
	s.slots = slots
	return s, nil
}

// subScope returns the subroutine's scope, building it on first use.
func (c *checker) subScope(sub *Subroutine) (*Scope, error) {
	if sub.Scope != nil {
		return sub.Scope, nil
	}
	s, err := c.buildScope(sub.Name, sub.Decls, c.prog.Scope, sub.Params)
	if err != nil {
		return nil, err
	}
	// Every parameter must be declared in the subroutine's declaration
	// section (Fortran style), and cannot be Async: the full/empty cell
	// has no by-reference representation.
	for i, param := range sub.Params {
		sym := s.params[i]
		if sym == nil {
			return nil, fmt.Errorf("line %d: parameter %s of %s not declared", sub.Line, param, sub.Name)
		}
		if sym.Class == Async {
			return nil, fmt.Errorf("line %d: parameter %s of %s cannot be Async", sub.Line, param, sub.Name)
		}
	}
	sub.Scope = s
	return s, nil
}

func (c *checker) stmts(list []Stmt, s *Scope) error {
	for _, st := range list {
		if err := c.stmt(st, s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(st Stmt, s *Scope) error {
	switch t := st.(type) {
	case *Assign:
		lt, err := c.refType(&t.Target, s)
		if err != nil {
			return err
		}
		rt, err := c.exprType(t.Expr, s)
		if err != nil {
			return err
		}
		t.Expr = convert(t.Expr, lt)
		return assignable(lt, rt, t.Pos())
	case *If:
		ct, err := c.exprType(t.Cond, s)
		if err != nil {
			return err
		}
		if ct != TLogical {
			return fmt.Errorf("line %d: IF condition must be LOGICAL", t.Pos())
		}
		if err := c.stmts(t.Then, s); err != nil {
			return err
		}
		return c.stmts(t.Else, s)
	case *SeqDo:
		var err error
		if t.VarSym, err = c.loopVar(t.Var, s, t.Pos(), false); err != nil {
			return err
		}
		if err := c.loopBounds(t.From, t.To, t.Step, s, t.Pos()); err != nil {
			return err
		}
		return c.stmts(t.Body, s)
	case *WhileDo:
		ct, err := c.exprType(t.Cond, s)
		if err != nil {
			return err
		}
		if ct != TLogical {
			return fmt.Errorf("line %d: DO WHILE condition must be LOGICAL", t.Pos())
		}
		return c.stmts(t.Body, s)
	case *ParDo:
		if err := c.collective(t.Pos(), doName[t.Sched]); err != nil {
			return err
		}
		var err error
		if t.VarSym, err = c.loopVar(t.Var, s, t.Pos(), true); err != nil {
			return err
		}
		if err := c.loopBounds(t.From, t.To, t.Step, s, t.Pos()); err != nil {
			return err
		}
		if t.Inner != nil {
			if t.Inner.VarSym, err = c.loopVar(t.Inner.Var, s, t.Pos(), true); err != nil {
				return err
			}
			if err := c.loopBounds(t.Inner.From, t.Inner.To, t.Inner.Step, s, t.Pos()); err != nil {
				return err
			}
			if t.Inner.Var == t.Var {
				return fmt.Errorf("line %d: doubly nested DOALL uses the same index twice", t.Pos())
			}
		}
		// A DOALL iteration body is itself a single-stream unit: one
		// process executes each iteration, so a collective inside it
		// deadlocks just as in the other serial contexts.
		return c.inSerial(doBody[t.Sched], func() error {
			return c.stmts(t.Body, s)
		})
	case *BarrierStmt:
		if err := c.collective(t.Pos(), "Barrier"); err != nil {
			return err
		}
		return c.inSerial("a barrier section", func() error {
			return c.stmts(t.Section, s)
		})
	case *CriticalStmt:
		return c.inSerial("a Critical body", func() error {
			return c.stmts(t.Body, s)
		})
	case *PcaseStmt:
		if err := c.collective(t.Pos(), "Pcase"); err != nil {
			return err
		}
		for _, b := range t.Blocks {
			if b.Cond != nil {
				ct, err := c.exprType(b.Cond, s)
				if err != nil {
					return err
				}
				if ct != TLogical {
					return fmt.Errorf("line %d: Csect condition must be LOGICAL", b.Line)
				}
			}
			b := b
			if err := c.inSerial("a Pcase block", func() error {
				return c.stmts(b.Body, s)
			}); err != nil {
				return err
			}
		}
		return nil
	case *AskforStmt:
		if err := c.collective(t.Pos(), "Askfor"); err != nil {
			return err
		}
		var err error
		if t.VarSym, err = c.loopVar(t.Var, s, t.Pos(), true); err != nil {
			return err
		}
		st, err := c.exprType(t.Seed, s)
		if err != nil {
			return err
		}
		if st != TInt {
			return fmt.Errorf("line %d: Askfor seed must be INTEGER", t.Pos())
		}
		c.askfor++
		err = c.inSerial("an Askfor body", func() error {
			return c.stmts(t.Body, s)
		})
		c.askfor--
		return err
	case *ReduceStmt:
		// A reduction is collective: every process contributes and the
		// construct synchronizes the whole force, so inside a
		// single-stream context (an Askfor task body, a Pcase block, a
		// DOALL iteration, a barrier section, a Critical body — directly
		// or through a Call) it would suspend the one process that
		// reached it forever.
		if err := c.collective(t.Pos(), t.Op.String()); err != nil {
			return err
		}
		lt, err := c.refType(&t.Target, s)
		if err != nil {
			return err
		}
		et, err := c.exprType(t.Expr, s)
		if err != nil {
			return err
		}
		if t.Op.Logical() {
			if lt != TLogical || et != TLogical {
				return fmt.Errorf("line %d: %s combines LOGICAL values", t.Pos(), t.Op)
			}
			return nil
		}
		if lt == TLogical || et == TLogical {
			return fmt.Errorf("line %d: %s combines numeric values", t.Pos(), t.Op)
		}
		t.Expr = convert(t.Expr, lt)
		return nil
	case *PutStmt:
		if c.askfor == 0 {
			return fmt.Errorf("line %d: Put outside an Askfor body", t.Pos())
		}
		et, err := c.exprType(t.Expr, s)
		if err != nil {
			return err
		}
		if et != TInt {
			return fmt.Errorf("line %d: Put task must be INTEGER", t.Pos())
		}
		return nil
	case *ProduceStmt:
		var err error
		if t.Sym, err = c.asyncVar(t.Var, t.Sub, s, t.Pos()); err != nil {
			return err
		}
		et, err := c.exprType(t.Expr, s)
		if err != nil {
			return err
		}
		t.Expr = convert(t.Expr, t.Sym.Type)
		return assignable(t.Sym.Type, et, t.Pos())
	case *ConsumeStmt:
		var err error
		t.Sym, err = c.asyncTransfer(t.Var, t.Sub, &t.Target, s, t.Pos())
		return err
	case *CopyStmt:
		var err error
		t.Sym, err = c.asyncTransfer(t.Var, t.Sub, &t.Target, s, t.Pos())
		return err
	case *VoidStmt:
		var err error
		t.Sym, err = c.asyncVar(t.Var, t.Sub, s, t.Pos())
		return err
	case *PrintStmt:
		for _, item := range t.Items {
			if _, ok := item.(*StrLit); ok {
				continue
			}
			if _, err := c.exprType(item, s); err != nil {
				return err
			}
		}
		return nil
	case *CallStmt:
		sub := c.prog.Sub(t.Name)
		if sub == nil {
			return fmt.Errorf("line %d: call of undefined subroutine %s", t.Pos(), t.Name)
		}
		if len(t.Args) != len(sub.Params) {
			return fmt.Errorf("line %d: %s takes %d arguments, got %d",
				t.Pos(), sub.Name, len(sub.Params), len(t.Args))
		}
		t.Callee = sub
		subScope, err := c.subScope(sub)
		if err != nil {
			return err
		}
		for i := range t.Args {
			arg := &t.Args[i]
			argDecl, ok := s.Lookup(arg.Name)
			if !ok {
				return fmt.Errorf("line %d: undeclared argument %s", t.Pos(), arg.Name)
			}
			if argDecl.Class == Async {
				return fmt.Errorf("line %d: async variable %s cannot be a subroutine argument", t.Pos(), arg.Name)
			}
			paramDecl, _ := subScope.Lookup(sub.Params[i])
			// Whole-array argument: dims must match; element or
			// scalar argument: param must be scalar.
			argDims := len(argDecl.Dims)
			if len(arg.Subs) > 0 {
				if _, err := c.refType(arg, s); err != nil {
					return err
				}
				argDims = 0
			} else {
				arg.Sym, arg.typ = argDecl, argDecl.Type
			}
			if argDims != len(paramDecl.Dims) {
				return fmt.Errorf("line %d: argument %d of %s: array shape mismatch",
					t.Pos(), i+1, sub.Name)
			}
			if argDecl.Type != paramDecl.Type {
				return fmt.Errorf("line %d: argument %d of %s: type %s does not match parameter %s",
					t.Pos(), i+1, sub.Name, argDecl.Type, paramDecl.Type)
			}
		}
		// A call inside a single-stream context must not smuggle in a
		// collective construct: re-check the callee's body under the
		// current context.  A sub proven collective-free is memoized
		// (the property depends only on the sub, not the context), so
		// call chains re-check each sub once, not exponentially; inCalls
		// guards against call cycles within one traversal.
		if len(c.serial) > 0 && !c.serialOK[sub.Name] && !c.inCalls[sub.Name] {
			if c.inCalls == nil {
				c.inCalls = map[string]bool{}
			}
			c.inCalls[sub.Name] = true
			err := c.stmts(sub.Body, subScope)
			delete(c.inCalls, sub.Name)
			if err != nil {
				return fmt.Errorf("line %d: in call of %s: %w", t.Pos(), sub.Name, err)
			}
			if c.serialOK == nil {
				c.serialOK = map[string]bool{}
			}
			c.serialOK[sub.Name] = true
		}
		return nil
	default:
		return fmt.Errorf("line %d: unhandled statement %T", st.Pos(), st)
	}
}

// loopVar resolves the variable a loop or Askfor header names.
func (c *checker) loopVar(name string, s *Scope, line int, mustPrivate bool) (*Symbol, error) {
	d, ok := s.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("line %d: undeclared loop variable %s", line, name)
	}
	if d.Type != TInt || len(d.Dims) != 0 {
		return nil, fmt.Errorf("line %d: loop variable %s must be a scalar INTEGER", line, name)
	}
	if mustPrivate && d.Class != Private {
		return nil, fmt.Errorf("line %d: DOALL index %s must be Private (each process holds its own copy)", line, name)
	}
	return d, nil
}

func (c *checker) loopBounds(from, to, step Expr, s *Scope, line int) error {
	for _, e := range []Expr{from, to, step} {
		if e == nil {
			continue
		}
		t, err := c.exprType(e, s)
		if err != nil {
			return err
		}
		if t != TInt {
			return fmt.Errorf("line %d: loop bounds must be INTEGER", line)
		}
	}
	return nil
}

// asyncVar resolves an async variable use, checking its subscript against
// the declaration shape: arrays require exactly one integer subscript,
// scalars none.
func (c *checker) asyncVar(name string, sub Expr, s *Scope, line int) (*Symbol, error) {
	d, ok := s.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("line %d: undeclared async variable %s", line, name)
	}
	if d.Class != Async {
		return nil, fmt.Errorf("line %d: %s is not an Async variable", line, name)
	}
	switch {
	case len(d.Dims) == 1 && sub == nil:
		return nil, fmt.Errorf("line %d: async array %s used without a subscript", line, name)
	case len(d.Dims) == 0 && sub != nil:
		return nil, fmt.Errorf("line %d: async scalar %s used with a subscript", line, name)
	case sub != nil:
		st, err := c.exprType(sub, s)
		if err != nil {
			return nil, err
		}
		if st != TInt {
			return nil, fmt.Errorf("line %d: subscript of %s must be INTEGER", line, name)
		}
	}
	return d, nil
}

func (c *checker) asyncTransfer(name string, sub Expr, target *Ref, s *Scope, line int) (*Symbol, error) {
	d, err := c.asyncVar(name, sub, s, line)
	if err != nil {
		return nil, err
	}
	tt, err := c.refType(target, s)
	if err != nil {
		return nil, err
	}
	return d, assignable(tt, d.Type, line)
}

// refType resolves a variable or array-element reference and records the
// symbol and type on it.  Async variables may not be referenced directly.
func (c *checker) refType(r *Ref, s *Scope) (Type, error) {
	d, ok := s.Lookup(r.Name)
	if !ok {
		return 0, fmt.Errorf("line %d: undeclared variable %s", r.Pos(), r.Name)
	}
	if d.Class == Async {
		return 0, fmt.Errorf("line %d: async variable %s may only be used with Produce/Consume/Copy/Void", r.Pos(), r.Name)
	}
	if len(r.Subs) != len(d.Dims) {
		if len(r.Subs) == 0 {
			return 0, fmt.Errorf("line %d: array %s used without subscripts", r.Pos(), r.Name)
		}
		return 0, fmt.Errorf("line %d: %s has %d dimension(s), subscripted with %d",
			r.Pos(), r.Name, len(d.Dims), len(r.Subs))
	}
	for _, sub := range r.Subs {
		st, err := c.exprType(sub, s)
		if err != nil {
			return 0, err
		}
		if st != TInt {
			return 0, fmt.Errorf("line %d: subscript of %s must be INTEGER", r.Pos(), r.Name)
		}
	}
	r.Sym, r.typ = d, d.Type
	return d.Type, nil
}

// exprType infers an expression's type and records it on the node.
func (c *checker) exprType(e Expr, s *Scope) (Type, error) {
	t, err := c.inferType(e, s)
	if err == nil {
		e.setType(t)
	}
	return t, err
}

func (c *checker) inferType(e Expr, s *Scope) (Type, error) {
	switch t := e.(type) {
	case *IntLit:
		return TInt, nil
	case *RealLit:
		return TReal, nil
	case *BoolLit:
		return TLogical, nil
	case *StrLit:
		return 0, fmt.Errorf("line %d: string literal only allowed in Print", t.Pos())
	case *Ref:
		return c.refType(t, s)
	case *Un:
		xt, err := c.exprType(t.X, s)
		if err != nil {
			return 0, err
		}
		if t.Neg {
			if xt == TLogical {
				return 0, fmt.Errorf("line %d: cannot negate a LOGICAL", t.Pos())
			}
			return xt, nil
		}
		if xt != TLogical {
			return 0, fmt.Errorf("line %d: .NOT. requires a LOGICAL", t.Pos())
		}
		return TLogical, nil
	case *Bin:
		lt, err := c.exprType(t.L, s)
		if err != nil {
			return 0, err
		}
		rt, err := c.exprType(t.R, s)
		if err != nil {
			return 0, err
		}
		// Mixed numeric operands meet in REAL.
		mixed := lt != rt && lt != TLogical && rt != TLogical
		if mixed {
			t.L, t.R = convert(t.L, TReal), convert(t.R, TReal)
		}
		switch t.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
			if lt == TLogical || rt == TLogical {
				return 0, fmt.Errorf("line %d: arithmetic on LOGICAL", t.Pos())
			}
			if mixed {
				return TReal, nil
			}
			return lt, nil
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if (lt == TLogical) != (rt == TLogical) {
				return 0, fmt.Errorf("line %d: comparison mixes LOGICAL and numeric", t.Pos())
			}
			if lt == TLogical && t.Op != OpEq && t.Op != OpNe {
				return 0, fmt.Errorf("line %d: LOGICALs only compare with .EQ./.NE.", t.Pos())
			}
			return TLogical, nil
		case OpAnd, OpOr:
			if lt != TLogical || rt != TLogical {
				return 0, fmt.Errorf("line %d: %s requires LOGICAL operands", t.Pos(), t.Op)
			}
			return TLogical, nil
		default:
			return 0, fmt.Errorf("line %d: unhandled operator %s", t.Pos(), t.Op)
		}
	case *Intrinsic:
		return c.intrinsicType(t, s)
	default:
		return 0, fmt.Errorf("unhandled expression %T", e)
	}
}

func (c *checker) intrinsicType(t *Intrinsic, s *Scope) (Type, error) {
	argTypes := make([]Type, len(t.Args))
	for i, a := range t.Args {
		at, err := c.exprType(a, s)
		if err != nil {
			return 0, err
		}
		if at == TLogical {
			return 0, fmt.Errorf("line %d: %s does not accept LOGICAL arguments", t.Pos(), t.Name)
		}
		argTypes[i] = at
	}
	wantArgs := map[string]int{"ABS": 1, "SQRT": 1, "INT": 1, "REAL": 1, "NINT": 1, "MOD": 2}
	if want, ok := wantArgs[t.Name]; ok && len(t.Args) != want {
		return 0, fmt.Errorf("line %d: %s takes %d argument(s), got %d", t.Pos(), t.Name, want, len(t.Args))
	}
	if (t.Name == "MIN" || t.Name == "MAX") && len(t.Args) < 2 {
		return 0, fmt.Errorf("line %d: %s takes at least 2 arguments", t.Pos(), t.Name)
	}
	switch t.Name {
	case "REAL":
		return TReal, nil
	case "INT":
		return TInt, nil
	case "SQRT":
		t.Args[0] = convert(t.Args[0], TReal)
		return TReal, nil
	case "NINT":
		t.Args[0] = convert(t.Args[0], TReal)
		return TInt, nil
	case "ABS":
		return argTypes[0], nil
	case "MOD", "MIN", "MAX": // mixed arguments meet in REAL
		if !slices.Contains(argTypes, TReal) {
			return TInt, nil
		}
		for i, a := range t.Args {
			t.Args[i] = convert(a, TReal)
		}
		return TReal, nil
	default:
		return 0, fmt.Errorf("line %d: unknown intrinsic %s", t.Pos(), t.Name)
	}
}

// convert returns e as a value of type to: e itself when it is one
// already, else e inside a REAL or INT intrinsic.  It is the one place an
// implicit INTEGER↔REAL conversion is decided: every back end lowers the
// wrapper as it lowers one the program spells, and a re-check of a
// converted tree finds nothing left to wrap.
func convert(e Expr, to Type) Expr {
	from := e.Type()
	if from == to || from == TLogical || to == TLogical {
		return e
	}
	name := "REAL"
	if to == TInt {
		name = "INT"
	}
	return &Intrinsic{exprBase: exprBase{line: int32(e.Pos()), typ: to}, Name: name, Args: []Expr{e}}
}

// assignable checks numeric coercion rules: int and real interconvert,
// logical only assigns to logical.
func assignable(dst, src Type, line int) error {
	if (dst == TLogical) != (src == TLogical) {
		return fmt.Errorf("line %d: cannot assign %s to %s", line, src, dst)
	}
	return nil
}
