// Package forcelang implements the front end for the Force dialect: a
// lexer, parser, AST and semantic checker for the Fortran-flavoured
// surface syntax the paper and the Force User's Manual [JBAR87] use.
//
// The dialect keeps the paper's statement forms — Force/ident headers,
// shared/private/async declarations, Presched and Selfsched DO loops,
// Barrier sections, Critical sections, Pcase with Usect/Csect blocks,
// Askfor work pools with run-time Put, Produce/Consume/Copy/Void, Join —
// over a small structured Fortran subset (assignments, IF/ELSE,
// sequential DO, PRINT, CALL).  Programs
// parsed here are executed SPMD by internal/interp and translated to Go
// by internal/codegen.
package forcelang

import (
	"fmt"
)

// Type is a Force variable type.
type Type uint8

const (
	// TInt is Fortran INTEGER.
	TInt Type = iota
	// TReal is Fortran REAL (Go float64).
	TReal
	// TLogical is Fortran LOGICAL.
	TLogical
)

// String returns the Fortran spelling of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TLogical:
		return "LOGICAL"
	default:
		return fmt.Sprintf("forcelang.Type(%d)", int(t))
	}
}

// Class is the Force storage class of a declaration: the paper's
// shared/private classification "orthogonal to the Fortran local/common
// classification", plus async (shared with a full/empty state).
type Class int

const (
	// Private variables are strictly local to one process (the Force
	// default).
	Private Class = iota
	// Shared variables are uniformly shared among all processes.
	Shared
	// Async variables are shared and carry a full/empty state.
	Async
)

// String returns the Force keyword for the class.
func (c Class) String() string {
	switch c {
	case Private:
		return "private"
	case Shared:
		return "shared"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("forcelang.Class(%d)", int(c))
	}
}

// IsShared reports whether every process sees the one variable.
func (c Class) IsShared() bool { return c == Shared || c == Async }

// Decl is one variable declaration.
//
// Unit and Slot are filled in by the semantic checker: Unit names the
// compilation unit owning the storage ("" for the main program, the
// subroutine name for unit-local declarations), and Slot is the
// declaration's index within that unit's storage-class sequence (shared
// scalars, shared arrays, async variables, private scalars and private
// arrays are numbered independently, in declaration order).  Slot 0 of
// the main unit's shared scalars is the implicit NP variable, and slot 0
// of every unit's private scalars is the implicit ident (ME) variable.
// The interpreter's resolve/compile pass executes against these indices
// instead of re-resolving names at run time.
type Decl struct {
	Class Class
	Type  Type
	Name  string
	Dims  []int // nil for scalars; 1 or 2 dimensions for arrays
	Line  int
	Unit  string // owning unit, recorded by the checker
	Slot  int    // index in the unit's per-class sequence, recorded by the checker
}

// Size returns the element count (1 for scalars).
func (d Decl) Size() int {
	n := 1
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// Storage is where a name lives, as far as any back end or proof cares:
// the checker's one answer to "what is this name bound to".
type Storage uint8

const (
	// PrivateScalar is a per-process (or per-call) scalar.
	PrivateScalar Storage = iota
	// PrivateArray is a per-process (or per-call) array.
	PrivateArray
	// SharedScalar is a force-wide scalar.
	SharedScalar
	// SharedArray is a force-wide array.
	SharedArray
	// AsyncVar is a full/empty cell or a one-dimensional array of them.
	AsyncVar
	// Parameter is a by-reference alias of caller storage, bound per call.
	Parameter
)

// Role marks the two names the Force header binds.
type Role uint8

const (
	// RoleNone is an ordinary declared variable.
	RoleNone Role = iota
	// RoleNP is the "of" variable: a read-only shared INTEGER holding the
	// number of processes (shared-scalar slot 0 of the main unit).
	RoleNP
	// RoleIdent is the "ident" variable: a private INTEGER holding the
	// process id (private-scalar slot 0 of every unit).
	RoleIdent
)

// String names the role the way checker errors do.
func (r Role) String() string {
	switch r {
	case RoleNP:
		return "number-of-processes"
	case RoleIdent:
		return "process-ident"
	default:
		return "ordinary"
	}
}

// Symbol is what one name denotes in one unit: the declaration (type,
// shape, owning unit and slot) plus how the unit reaches it.  The checker
// creates one Symbol per declaration per unit that declares it — an
// inherited shared or async name is the main unit's own record, shared
// by pointer — and every node that names a variable points at it
// (Ref.Sym, the VarSym of loop and Askfor statements, the Sym of the
// async statements).  Back ends bind storage from these fields; none
// re-resolves a name.
type Symbol struct {
	Decl
	Storage Storage
	Role    Role
	// Param is the positional index in the owning subroutine's parameter
	// list when Storage is Parameter, -1 otherwise.
	Param int
}

// Program is a parsed Force program.
type Program struct {
	Name  string
	NPVar string // the "of" identifier, bound to the number of processes
	MeVar string // the "ident" identifier, bound to the process id
	Decls []Decl
	Subs  []*Subroutine
	Body  []Stmt
	// Scope is the main program's resolved scope, recorded by the checker.
	Scope *Scope
	// Source is the text Parse was given (the caller's string, not a
	// copy): what internal/aot keys a compiled program by.  Empty on a
	// tree built by hand.
	Source string
}

// Sub looks up a parallel subroutine by name.
func (p *Program) Sub(name string) *Subroutine {
	for _, s := range p.Subs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Subroutine is a Forcesub: a parallel subroutine executed by all
// processes concurrently (§3.1).  Parameters are passed by reference and
// must be variable names at call sites.
type Subroutine struct {
	Name   string
	Params []string
	Decls  []Decl
	Body   []Stmt
	Line   int
	// Scope is the subroutine's resolved scope, recorded by the checker.
	Scope *Scope
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	// Pos returns the source line.
	Pos() int
}

type stmtBase struct{ Line int }

func (s stmtBase) stmtNode() {}

// Pos returns the source line of the statement.
func (s stmtBase) Pos() int { return s.Line }

// Assign is target = expr.
type Assign struct {
	stmtBase
	Target Ref
	Expr   Expr
}

// If is a structured IF (cond) THEN ... [ELSE ...] END IF.
type If struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// SeqDo is a sequential (private) DO loop.
type SeqDo struct {
	stmtBase
	Var      string
	VarSym   *Symbol // Var resolved, recorded by the checker
	From, To Expr
	Step     Expr // nil means 1
	Body     []Stmt
}

// WhileDo is a sequential DO WHILE (cond) loop.  Like every sequential
// statement it executes SPMD in each process; convergence loops test a
// shared flag that a barrier section maintains.
type WhileDo struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// SchedKind is the scheduling discipline of a parallel loop.
type SchedKind int

const (
	// Presched distributes indices cyclically at compile time.
	Presched SchedKind = iota
	// Selfsched distributes indices through a shared counter at run time.
	Selfsched
)

// String returns the dialect keyword.
func (k SchedKind) String() string {
	if k == Presched {
		return "Presched"
	}
	return "Selfsched"
}

// ParDo is a DOALL: Presched DO or Selfsched DO.  Doubly nested DOALLs are
// expressed with Inner, which distributes the index pairs.
type ParDo struct {
	stmtBase
	Sched    SchedKind
	Var      string
	VarSym   *Symbol // Var resolved, recorded by the checker
	From, To Expr
	Step     Expr // nil means 1
	// Inner, when non-nil, makes this a two-index DOALL over (Var, Inner.Var).
	Inner *ParDoInner
	Body  []Stmt
}

// ParDoInner is the second index of a doubly nested DOALL.
type ParDoInner struct {
	Var      string
	VarSym   *Symbol
	From, To Expr
	Step     Expr
}

// BarrierStmt is Barrier ... End Barrier; Section holds the barrier
// section executed by exactly one process.
type BarrierStmt struct {
	stmtBase
	Section []Stmt
}

// CriticalStmt is Critical name ... End Critical.
type CriticalStmt struct {
	stmtBase
	Name string
	Body []Stmt
}

// PcaseBlock is one Usect/Csect block.
type PcaseBlock struct {
	Cond Expr // nil for Usect
	Body []Stmt
	Line int
}

// PcaseStmt is Pcase [Selfsched] ... End Pcase.
type PcaseStmt struct {
	stmtBase
	Selfsched bool
	Blocks    []PcaseBlock
}

// AskforStmt is Askfor var = seed ... End Askfor: the paper's dynamic
// work pool (§3.3, citing [LO83]) at language level.  The force
// collectively drains a pool of integer tasks seeded with the seed
// expression's value; each task executes the body with the (private
// integer) task variable bound to the task, and the body may request new
// concurrent instances with Put.  The construct ends when the pool is
// empty and no task is executing, followed by the implicit exit barrier.
//
// A task body is a single-stream code segment executed by one process:
// the checker rejects collective constructs (Barrier, DOALLs, Pcase,
// nested Askfor) inside it, directly or through a Call, since only the
// process running the task would reach them.
type AskforStmt struct {
	stmtBase
	Var    string
	VarSym *Symbol // Var resolved, recorded by the checker
	Seed   Expr
	Body   []Stmt
}

// PutStmt is Put expr: enqueue a new integer task on the enclosing
// Askfor's pool.  Valid only inside an Askfor body.
type PutStmt struct {
	stmtBase
	Expr Expr
}

// GOp names a global-reduction operator at language level.
type GOp int

// The six global operators: sum, product, maximum, minimum, conjunction
// and disjunction over the whole force.
const (
	GSum GOp = iota
	GProd
	GMax
	GMin
	GAnd
	GOr
)

var gopNames = map[GOp]string{
	GSum: "GSUM", GProd: "GPROD", GMax: "GMAX", GMin: "GMIN", GAnd: "GAND", GOr: "GOR",
}

// String returns the dialect keyword of the operator.
func (o GOp) String() string {
	if s, ok := gopNames[o]; ok {
		return s
	}
	return fmt.Sprintf("GOp(%d)", int(o))
}

// Logical reports whether the operator combines LOGICAL values (GAND,
// GOR); the others are numeric.
func (o GOp) Logical() bool { return o == GAnd || o == GOr }

// GOps lists the operators in declaration order.
func GOps() []GOp { return []GOp{GSum, GProd, GMax, GMin, GAnd, GOr} }

// ReduceStmt is a global reduction statement: GSUM target = expr (and
// GPROD/GMAX/GMIN/GAND/GOR).  Every process of the force evaluates expr,
// the values are combined with the operator, and target receives the
// combined value: a shared target is stored exactly once while the force
// is suspended, a private target is assigned in every process.  The
// statement is collective — all processes must reach it together, so it
// is illegal inside single-stream contexts (Askfor task bodies, Pcase
// blocks, DOALL iteration bodies, barrier sections, Critical bodies).
type ReduceStmt struct {
	stmtBase
	Op     GOp
	Target Ref
	Expr   Expr
}

// ProduceStmt is Produce var = expr, or Produce var(sub) = expr for an
// asynchronous array element (Sub nil for scalars).  Async arrays are the
// HEP idiom — a full/empty bit on every cell — and are one-dimensional.
type ProduceStmt struct {
	stmtBase
	Var  string
	Sym  *Symbol // Var resolved, recorded by the checker
	Sub  Expr    // nil for scalar async variables
	Expr Expr
}

// ConsumeStmt is Consume var[(sub)] into target.
type ConsumeStmt struct {
	stmtBase
	Var    string
	Sym    *Symbol // Var resolved, recorded by the checker
	Sub    Expr    // nil for scalar async variables
	Target Ref
}

// CopyStmt is Copy var[(sub)] into target (read a full async variable
// without emptying it).
type CopyStmt struct {
	stmtBase
	Var    string
	Sym    *Symbol // Var resolved, recorded by the checker
	Sub    Expr    // nil for scalar async variables
	Target Ref
}

// VoidStmt is Void var[(sub)].
type VoidStmt struct {
	stmtBase
	Var string
	Sym *Symbol // Var resolved, recorded by the checker
	Sub Expr    // nil for scalar async variables
}

// PrintStmt is Print item {, item}; items are expressions or string
// literals.
type PrintStmt struct {
	stmtBase
	Items []Expr
}

// CallStmt is Call name(args); arguments are variable references passed by
// reference.
type CallStmt struct {
	stmtBase
	Name   string
	Callee *Subroutine // Name resolved, recorded by the checker
	Args   []Ref
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	// Pos returns the source line.
	Pos() int
	// Type returns the type the checker inferred for the expression.  It
	// is meaningful only on nodes of a checked program (Parse checks);
	// string literals, legal only as Print items, carry none.
	Type() Type
	setType(Type)
}

// exprBase is the part every expression node shares: its source line and
// its checked type, packed into the one word the line alone used to take.
type exprBase struct {
	line int32
	typ  Type
}

// at is the exprBase of a node on the given source line.
func at(line int) exprBase { return exprBase{line: int32(line)} }

func (e exprBase) exprNode() {}

// Pos returns the source line of the expression.
func (e exprBase) Pos() int { return int(e.line) }

// Type returns the expression's checked type.
func (e exprBase) Type() Type { return e.typ }

func (e *exprBase) setType(t Type) { e.typ = t }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// RealLit is a real literal.
type RealLit struct {
	exprBase
	Value float64
}

// BoolLit is .TRUE. or .FALSE..
type BoolLit struct {
	exprBase
	Value bool
}

// StrLit is a string literal (Print only).
type StrLit struct {
	exprBase
	Value string
}

// Ref is an lvalue: a scalar variable or an array element.
type Ref struct {
	exprBase
	Name string
	Subs []Expr  // nil for scalars
	Sym  *Symbol // Name resolved in the enclosing unit, recorded by the checker
}

// BinOp is a binary operator.
type BinOp int

// Binary operators, in precedence groups.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: ".EQ.", OpNe: ".NE.", OpLt: ".LT.", OpLe: ".LE.", OpGt: ".GT.", OpGe: ".GE.",
	OpAnd: ".AND.", OpOr: ".OR.",
}

// String returns the Fortran spelling of the operator.
func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Bin is a binary expression.
type Bin struct {
	exprBase
	Op   BinOp
	L, R Expr
}

// Un is unary minus or .NOT..
type Un struct {
	exprBase
	Neg bool // true: -x, false: .NOT. x
	X   Expr
}

// Intrinsic is a call to a builtin function: ABS, MIN, MAX, MOD, SQRT,
// INT, REAL, NINT.
type Intrinsic struct {
	exprBase
	Name string
	Args []Expr
}

// Intrinsics lists the supported intrinsic function names.
func Intrinsics() []string {
	return []string{"ABS", "MIN", "MAX", "MOD", "SQRT", "INT", "REAL", "NINT"}
}

// IsIntrinsic reports whether name (upper case) is an intrinsic.
func IsIntrinsic(name string) bool {
	for _, n := range Intrinsics() {
		if n == name {
			return true
		}
	}
	return false
}
