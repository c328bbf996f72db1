package forcelang

import (
	"fmt"
	"strings"
	"testing"
)

// sample is a program exercising every statement form.
const sample = `
C A sample Force program
Force DEMO of NP ident ME
Shared Real A(8,8), S
Shared Integer N
Private Integer I, J
Private Real T
Async Real V
End Declarations
      N = 8
      Barrier
      S = 0.0
      End Barrier
      Presched DO I = 1, N
        A(I, 1) = REAL(I)
      End Presched DO
      Selfsched DO J = 1, N, 1
        A(1, J) = 2.0 * REAL(J)
      End Selfsched DO
      Presched DO I = 1, N also J = 1, N
        A(I, J) = A(I, J) + 1.0   ! touch every pair
      End Presched DO
      DO I = 1, 3
        T = T + A(I, I)
      End DO
      IF (ME .EQ. 0) THEN
        Produce V = T
      ELSE
        Print 'waiting', ME
      End IF
      IF (ME .EQ. 1 .OR. NP .EQ. 1) THEN
        Consume V into T
      End IF
      Critical SUMLOCK
        S = S + T
      End Critical
      Pcase
      Usect
        S = S + 1.0
      Csect (N .GT. 4)
        S = S + 2.0
      End Pcase
      Void V
      Call SCALE(A, S)
Join
Forcesub SCALE(X, F)
Shared Real X(8,8)
Shared Real F
Private Integer K
End Declarations
      Presched DO K = 1, 8
        X(K, K) = X(K, K) * F
      End Presched DO
Endsub
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "DEMO" || prog.NPVar != "NP" || prog.MeVar != "ME" {
		t.Errorf("header: %q of %q ident %q", prog.Name, prog.NPVar, prog.MeVar)
	}
	if len(prog.Decls) != 7 {
		t.Errorf("got %d declarations, want 7", len(prog.Decls))
	}
	if len(prog.Subs) != 1 || prog.Subs[0].Name != "SCALE" {
		t.Fatalf("subs: %+v", prog.Subs)
	}
	if got := len(prog.Subs[0].Params); got != 2 {
		t.Errorf("SCALE has %d params, want 2", got)
	}
	if prog.Sub("SCALE") == nil || prog.Sub("NOPE") != nil {
		t.Error("Sub lookup broken")
	}
	// Spot-check statement kinds in order.
	kinds := []string{}
	for _, s := range prog.Body {
		kinds = append(kinds, strings.TrimPrefix(fmt.Sprintf("%T", s), "*forcelang."))
	}
	want := []string{"Assign", "BarrierStmt", "ParDo", "ParDo", "ParDo", "SeqDo",
		"If", "If", "CriticalStmt", "PcaseStmt", "VoidStmt", "CallStmt"}
	if len(kinds) != len(want) {
		t.Fatalf("body kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("stmt %d is %s, want %s", i, kinds[i], want[i])
		}
	}
	// The third ParDo is doubly nested.
	pd := prog.Body[4].(*ParDo)
	if pd.Inner == nil || pd.Inner.Var != "J" {
		t.Error("doubly nested DOALL not parsed")
	}
	// Pcase block structure.
	pc := prog.Body[9].(*PcaseStmt)
	if len(pc.Blocks) != 2 || pc.Blocks[0].Cond != nil || pc.Blocks[1].Cond == nil {
		t.Errorf("pcase blocks: %+v", pc.Blocks)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	prog, err := Parse("force f OF np IDENT me\nshared integer n\nEND DECLARATIONS\nn = 1\njoin\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "F" || prog.NPVar != "NP" {
		t.Errorf("%+v", prog)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "C full line comment\n* another\n! bang comment\n\nForce P of NP ident ME\nEnd Declarations\nPrint 'x' ! trailing comment\nJoin\n"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"Force P of NP ident ME\nEnd Declarations\nPrint 'unterminated\nJoin\n",
		"Force P of NP ident ME\nEnd Declarations\nX = 1 .XX. 2\nJoin\n",
		"Force P of NP ident ME\nEnd Declarations\nX = #\nJoin\n",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":   "Shared Integer N\nEnd Declarations\nJoin\n",
		"missing end decl": "Force P of NP ident ME\nShared Integer N\nJoin\n",
		"missing join":     "Force P of NP ident ME\nEnd Declarations\nN = 1\n",
		"bad decl class":   "Force P of NP ident ME\nGlobal Integer N\nEnd Declarations\nJoin\n",
		"bad type":         "Force P of NP ident ME\nShared COMPLEX N\nEnd Declarations\nJoin\n",
		"neg dim":          "Force P of NP ident ME\nShared Real A(0)\nEnd Declarations\nJoin\n",
		"3 dims":           "Force P of NP ident ME\nShared Real A(2,2,2)\nEnd Declarations\nJoin\n",
		"empty pcase":      "Force P of NP ident ME\nEnd Declarations\nPcase\nEnd Pcase\nJoin\n",
		"stray else":       "Force P of NP ident ME\nEnd Declarations\nElse\nJoin\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	header := "Force P of NP ident ME\n"
	cases := map[string]string{
		"dup decl":        header + "Shared Integer N\nShared Real N\nEnd Declarations\nJoin\n",
		"np=me":           "Force P of X ident X\nEnd Declarations\nJoin\n",
		"undeclared":      header + "End Declarations\nX = 1\nJoin\n",
		"async 2d array":  header + "Async Real V(4,4)\nEnd Declarations\nJoin\n",
		"async arr bare":  header + "Async Real V(4)\nEnd Declarations\nProduce V = 1.0\nJoin\n",
		"async scal sub":  header + "Async Real V\nEnd Declarations\nProduce V(1) = 1.0\nJoin\n",
		"async real sub":  header + "Async Real V(4)\nEnd Declarations\nProduce V(1.5) = 1.0\nJoin\n",
		"async logical":   header + "Async Logical V\nEnd Declarations\nJoin\n",
		"async in expr":   header + "Async Real V\nShared Real X\nEnd Declarations\nX = V + 1.0\nJoin\n",
		"produce non-asy": header + "Shared Real X\nEnd Declarations\nProduce X = 1.0\nJoin\n",
		"logical arith":   header + "Shared Logical L\nEnd Declarations\nL = L + 1\nJoin\n",
		"if not logical":  header + "End Declarations\nIF (ME) THEN\nEnd IF\nJoin\n",
		"shared index":    header + "Shared Integer I\nEnd Declarations\nPresched DO I = 1, 4\nEnd Presched DO\nJoin\n",
		"real loop var":   header + "Private Real R\nEnd Declarations\nDO R = 1, 4\nEnd DO\nJoin\n",
		"real bounds":     header + "Private Integer I\nShared Real X\nEnd Declarations\nDO I = 1, X\nEnd DO\nJoin\n",
		"arity":           header + "Shared Real A(4,4)\nShared Real X\nEnd Declarations\nX = A(1)\nJoin\n",
		"scalar subs":     header + "Shared Real X, Y\nEnd Declarations\nX = Y(1)\nJoin\n",
		"real subscript":  header + "Shared Real A(4), X\nEnd Declarations\nX = A(1.5)\nJoin\n",
		"undef sub":       header + "End Declarations\nCall NOPE(ME)\nJoin\n",
		"assign logical":  header + "Shared Logical L\nShared Real X\nEnd Declarations\nX = L\nJoin\n",
		"mod args":        header + "Shared Real X\nEnd Declarations\nX = MOD(1)\nJoin\n",
		"min one arg":     header + "Shared Real X\nEnd Declarations\nX = MIN(1)\nJoin\n",
		"sqrt logical":    header + "Shared Logical L\nShared Real X\nEnd Declarations\nX = SQRT(L)\nJoin\n",
		"same 2d index":   header + "Private Integer I\nEnd Declarations\nPresched DO I = 1, 2 also I = 1, 2\nEnd Presched DO\nJoin\n",
		"csect numeric":   header + "End Declarations\nPcase\nCsect (ME)\nEnd Pcase\nJoin\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: check passed, want error", name)
		}
	}
}

// TestHeaderVariablesCannotBeRedeclared pins the binding rule: NP and the
// ident variable belong to the force header, and no unit may declare a
// local or a parameter under either name (every tier used to shadow the
// declaration silently, each in its own way).  The rejection names the
// variable's role and the offending line.  Shadowing an inherited shared
// name in a subroutine stays legal.
func TestHeaderVariablesCannotBeRedeclared(t *testing.T) {
	sub := func(params, decls, body string) string {
		return "Force P of NP ident ME\nShared Integer N\nEnd Declarations\nJoin\n" +
			"Forcesub S(" + params + ")\n" + decls + "End Declarations\n" + body + "Endsub\n"
	}
	for name, tc := range map[string]struct{ src, want string }{
		"local named ident": {sub("", "Private Real ME\n", "ME = 2.5\nPrint ME\n"),
			"line 6: ME is the force's process-ident variable"},
		"parameter named NP": {sub("NP", "Private Integer NP\n", "Print NP\n"),
			"line 6: NP is the force's number-of-processes variable"},
		"parameter named ident": {sub("ME", "Private Integer ME\n", "ME = ME + 1\n"),
			"line 6: ME is the force's process-ident variable"},
		"main redeclares NP": {"Force P of NP ident ME\nShared Integer NP\nEnd Declarations\nJoin\n",
			"line 2: NP is the force's number-of-processes variable"},
		"undeclared parameter named NP": {sub("NP", "", "Print NP\n"),
			"line 5: parameter NP of S not declared"},
		"sub declares a name twice": {sub("", "Private Integer K\nPrivate Real K\n", ""),
			"line 7: K already declared (line 6)"},
	} {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
	if _, err := Parse(sub("", "Private Real N\n", "N = 1.5\nPrint N\n")); err != nil {
		t.Errorf("sub-local shadowing an inherited shared name rejected: %v", err)
	}
}

// TestCheckAnnotatesTheTree walks a checked program: every name a node
// mentions points at the scope's own symbol record, and every expression
// carries the type the checker inferred.
func TestCheckAnnotatesTheTree(t *testing.T) {
	prog := MustParse(`Force AN of NP ident ME
Shared Real A(8), X
Shared Integer N
Async Real Q(4)
Private Integer I, J
End Declarations
Presched DO I = 1, NP
A(I) = X * I + SQRT(REAL(N))
End Presched DO
Askfor J = 1
Produce Q(J) = A(J) / 2
End Askfor
Call S(A, N, A(2))
Join
Forcesub S(V, K, E)
Shared Real V(8), E
Shared Integer K
Private Real X
End Declarations
X = V(K) + E + ME
Consume Q(1) into X
Endsub
`)
	main, sub := prog.Scope, prog.Subs[0].Scope
	pd := prog.Body[0].(*ParDo)
	if pd.VarSym != mustLookup(t, main, "I") || pd.VarSym.Storage != PrivateScalar {
		t.Errorf("DOALL variable: %+v", pd.VarSym)
	}
	if np := pd.To.(*Ref); np.Sym.Role != RoleNP || np.Type() != TInt {
		t.Errorf("NP reference: %+v type %s", np.Sym, np.Type())
	}
	as := pd.Body[0].(*Assign)
	if as.Target.Sym != mustLookup(t, main, "A") || as.Target.Sym.Storage != SharedArray || as.Target.Type() != TReal {
		t.Errorf("assignment target: %+v", as.Target.Sym)
	}
	sum := as.Expr.(*Bin)
	if got := show(sum.L); sum.Type() != TReal || sum.L.Type() != TReal || got != "X*REAL(I)" {
		t.Errorf("X*I + SQRT(..): %s, types %s, %s", got, sum.Type(), sum.L.Type())
	}
	ask := prog.Body[1].(*AskforStmt)
	if ask.VarSym != mustLookup(t, main, "J") {
		t.Errorf("Askfor variable: %+v", ask.VarSym)
	}
	if q := ask.Body[0].(*ProduceStmt); q.Sym != mustLookup(t, main, "Q") || q.Sym.Storage != AsyncVar {
		t.Errorf("Produce variable: %+v", q.Sym)
	}
	call := prog.Body[2].(*CallStmt)
	if call.Callee != prog.Subs[0] {
		t.Error("Call does not point at its subroutine")
	}
	for i, want := range []string{"A", "N", "A"} {
		if call.Args[i].Sym != mustLookup(t, main, want) {
			t.Errorf("argument %d: %+v", i, call.Args[i].Sym)
		}
	}
	for i, name := range []string{"V", "K", "E"} {
		if p := mustLookup(t, sub, name); p.Storage != Parameter || p.Param != i || p.Unit != "S" {
			t.Errorf("parameter %s: %+v", name, p)
		}
	}
	x := prog.Subs[0].Body[0].(*Assign)
	if x.Target.Sym != mustLookup(t, sub, "X") || x.Target.Sym == mustLookup(t, main, "X") || x.Target.Sym.Storage != PrivateScalar {
		t.Errorf("sub-local X must shadow the inherited shared X: %+v", x.Target.Sym)
	}
	if me := x.Expr.(*Bin).R.(*Intrinsic).Args[0].(*Ref); me.Sym.Role != RoleIdent || me.Sym.Unit != "S" || me.Sym.Slot != 0 {
		t.Errorf("ident reference in S: %+v", me.Sym)
	}
	if c := prog.Subs[0].Body[1].(*ConsumeStmt); c.Sym != mustLookup(t, main, "Q") || c.Target.Sym != x.Target.Sym {
		t.Errorf("Consume: %+v into %+v", c.Sym, c.Target.Sym)
	}
}

func TestCallArgumentChecking(t *testing.T) {
	base := `Force P of NP ident ME
Shared Real A(4)
Shared Integer N
End Declarations
%s
Join
Forcesub S(X, K)
Shared Real X(4)
Shared Integer K
End Declarations
K = 1
Endsub
`
	good := strings.Replace(base, "%s", "Call S(A, N)", 1)
	if _, err := Parse(good); err != nil {
		t.Errorf("valid call rejected: %v", err)
	}
	for name, call := range map[string]string{
		"too few":     "Call S(A)",
		"shape":       "Call S(N, N)",
		"type":        "Call S(A, A)",
		"element arg": "Call S(A(1), N)",
	} {
		src := strings.Replace(base, "%s", call, 1)
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSubroutineSeesSharedNotPrivate(t *testing.T) {
	src := `Force P of NP ident ME
Shared Real G
Private Real PLOCAL
End Declarations
Join
Forcesub S()
End Declarations
G = 1.0
Endsub
`
	if _, err := Parse(src); err != nil {
		t.Errorf("shared global not visible in sub: %v", err)
	}
	bad := strings.Replace(src, "G = 1.0", "PLOCAL = 1.0", 1)
	if _, err := Parse(bad); err == nil {
		t.Error("private main variable visible in sub")
	}
}

func TestGlobalScope(t *testing.T) {
	scope := MustParse(sample).Scope
	if d, ok := scope.Lookup("A"); !ok || len(d.Dims) != 2 || d.Class != Shared {
		t.Errorf("A: %+v ok=%v", d, ok)
	}
	if d, ok := scope.Lookup("ME"); !ok || d.Class != Private || d.Type != TInt {
		t.Errorf("ME: %+v ok=%v", d, ok)
	}
	if d, ok := scope.Lookup("NP"); !ok || d.Class != Shared {
		t.Errorf("NP: %+v ok=%v", d, ok)
	}
	if d, ok := scope.Lookup("V"); !ok || d.Class != Async || d.Storage != AsyncVar {
		t.Errorf("V (declared as v; the lexer upper-cases identifiers once): %+v ok=%v", d, ok)
	}
	if len(scope.Names()) != 9 { // 7 decls + NP + ME
		t.Errorf("Names() = %v", scope.Names())
	}
}

func TestSubScope(t *testing.T) {
	scope := MustParse(sample).Subs[0].Scope
	if _, ok := scope.Lookup("K"); !ok {
		t.Error("sub local K missing")
	}
	if _, ok := scope.Lookup("S"); !ok {
		t.Error("global shared S not inherited")
	}
	if _, ok := scope.Lookup("I"); ok {
		t.Error("main private I leaked into sub scope")
	}
}

func TestDeclSize(t *testing.T) {
	if (Decl{}).Size() != 1 {
		t.Error("scalar size != 1")
	}
	if (Decl{Dims: []int{4, 8}}).Size() != 32 {
		t.Error("2D size wrong")
	}
}

func TestTypeAndOpStrings(t *testing.T) {
	if TInt.String() != "INTEGER" || TReal.String() != "REAL" || TLogical.String() != "LOGICAL" {
		t.Error("type strings")
	}
	if Type(9).String() != "forcelang.Type(9)" {
		t.Error("unknown type string")
	}
	if OpLe.String() != ".LE." || OpMul.String() != "*" {
		t.Error("op strings")
	}
	if BinOp(99).String() != "BinOp(99)" {
		t.Error("unknown op string")
	}
	if Presched.String() != "Presched" || Selfsched.String() != "Selfsched" {
		t.Error("sched strings")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("not a program")
}

func TestNumericLiterals(t *testing.T) {
	src := `Force P of NP ident ME
Shared Real X
End Declarations
X = 1.5 + 2. + .25 + 1E2 + 1.5E-1 + 3e+2
Join
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscapes(t *testing.T) {
	prog := MustParse("Force P of NP ident ME\nEnd Declarations\nPrint 'it''s fine'\nJoin\n")
	ps := prog.Body[0].(*PrintStmt)
	if got := ps.Items[0].(*StrLit).Value; got != "it's fine" {
		t.Errorf("string = %q", got)
	}
}

// TestCheckerRecordsSlots verifies the slot information the checker
// attaches to declarations: per-unit, per-class sequences in declaration
// order, NP at shared-scalar slot 0 of the main unit, ME at private-scalar
// slot 0 of every unit, and inherited (COMMON-like) declarations keeping
// their main-unit identity inside subroutine scopes.
func TestCheckerRecordsSlots(t *testing.T) {
	prog := MustParse(`Force SL of NP ident ME
Shared Integer A, B
Shared Real M(4, 4)
Async Real Q(8)
Private Integer I
Private Real W(3)
End Declarations
Join
Forcesub S(P)
Shared Real P
Shared Integer LOCALSH
Private Integer K
End Declarations
K = 0
Endsub
`)
	g := prog.Scope
	wantMain := map[string]struct {
		unit string
		slot int
	}{
		"NP": {"", 0}, "A": {"", 1}, "B": {"", 2}, // shared scalars
		"M":  {"", 0},               // shared arrays
		"Q":  {"", 0},               // async
		"ME": {"", 0}, "I": {"", 1}, // private scalars
		"W": {"", 0}, // private arrays
	}
	for name, want := range wantMain {
		d, ok := g.Lookup(name)
		if !ok {
			t.Fatalf("main: %s not in scope", name)
		}
		if d.Unit != want.unit || d.Slot != want.slot {
			t.Errorf("main %s: unit %q slot %d, want unit %q slot %d", name, d.Unit, d.Slot, want.unit, want.slot)
		}
	}
	sc := prog.Subs[0].Scope
	wantSub := map[string]struct {
		unit string
		slot int
	}{
		"NP": {"", 0}, "A": {"", 1}, "B": {"", 2}, // inherited shared keeps main slots
		"P":       {"S", 0},              // unit-local shared numbers from 0 (param: aliased at call time)
		"LOCALSH": {"S", 1},              // ...continuing in declaration order
		"ME":      {"S", 0},              // ident is private slot 0 in every unit
		"K":       {"S", 1},              // private scalars number after ME
		"M":       {"", 0}, "Q": {"", 0}, // inherited array/async keep main slots
	}
	for name, want := range wantSub {
		d, ok := sc.Lookup(name)
		if !ok {
			t.Fatalf("sub: %s not in scope", name)
		}
		if d.Unit != want.unit || d.Slot != want.slot {
			t.Errorf("sub %s: unit %q slot %d, want unit %q slot %d", name, d.Unit, d.Slot, want.unit, want.slot)
		}
	}
	// Own() lists what the unit itself introduces, in declaration order,
	// the ident variable first; inherited names stay the main unit's.
	var own []string
	for _, sym := range sc.Own() {
		own = append(own, sym.Name)
	}
	if got := strings.Join(own, " "); got != "ME P LOCALSH K" {
		t.Errorf("Own() = %s, want ME P LOCALSH K", got)
	}
	if inherited, _ := sc.Lookup("A"); inherited != mustLookup(t, g, "A") {
		t.Error("inherited shared A is not the main unit's own symbol record")
	}
}

func mustLookup(t *testing.T, s *Scope, name string) *Symbol {
	t.Helper()
	sym, ok := s.Lookup(name)
	if !ok {
		t.Fatalf("%s not in scope", name)
	}
	return sym
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{Private: "private", Shared: "shared", Async: "async"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Class(9).String(); got != "forcelang.Class(9)" {
		t.Errorf("unknown class String() = %q", got)
	}
}

func TestClassIsShared(t *testing.T) {
	if Private.IsShared() {
		t.Error("Private.IsShared() = true")
	}
	if !Shared.IsShared() || !Async.IsShared() {
		t.Error("Shared/Async IsShared() = false")
	}
}
