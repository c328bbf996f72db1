package plan

// The classifier's verdicts are pinned where they are consumed:
// TestClassify* in internal/interp (the closure compiler's view) and the
// golden files in internal/codegen; what every name is bound to is pinned
// across all four tiers by TestBindingMatrix (root package).  The tests
// here cover what only this package owns: the node list Next lowers a
// statement list to (the region scan, the riders, the levels) and the
// order-stability both back ends rely on.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/forcelang"
)

func parse(t *testing.T, src string) *forcelang.Program {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// pos is the line of a statement, 0 for none.
func pos(b *forcelang.BarrierStmt) int {
	if b == nil {
		return 0
	}
	return b.Pos()
}

// TestAccumulatorOrderStable: folded accumulators come out in name
// order, whatever order the body mentions them in — the Go emitter's
// output is content-addressed, so map order must not reach it.
func TestAccumulatorOrderStable(t *testing.T) {
	prog := parse(t, `Force ACC of NP ident ME
Shared Integer ZED, MID, ABLE
Private Integer I
End Declarations
Presched DO I = 1, 64
  ZED = ZED + I
  ABLE = MAX(ABLE, I)
  MID = MID - 1
End Presched DO
Join
`)
	for round := 0; round < 20; round++ {
		p, reason := Classify(prog.Body[0].(*forcelang.ParDo))
		if p == nil {
			t.Fatal(reason)
		}
		var names []string
		for i, rec := range p.AccRecs {
			names = append(names, rec.Sym.Name)
			if si, ok := p.Fold(rec.Sym); !ok || si != i {
				t.Fatalf("Fold(%s) = %d, %v, want %d", rec.Sym.Name, si, ok, i)
			}
		}
		if got := strings.Join(names, " "); got != "ABLE MID ZED" {
			t.Fatalf("round %d: accumulators in order %q", round, got)
		}
		if p.CyclicWhy != "" {
			t.Fatalf("all-accumulator body keeps the cyclic deal: %s %s", p.CyclicWhy, p.CyclicName)
		}
	}
}

// TestFuseScan pins the region scan: the longest provable prefix of a
// DOALL run fuses (tail first, then trailing members dropped), the
// remainder is left to the caller, and only the most ambitious decline
// is kept.
func TestFuseScan(t *testing.T) {
	prog := parse(t, `Force SCAN of NP ident ME
Shared Real A(64), B(64), C(64)
Shared Real TOT
Private Integer I
Private Real MINE
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 64
  B(I) = A(I) * 2.0
End Presched DO
Presched DO I = 1, 64
  C(I) = B(65 - I)
End Presched DO
GSUM TOT = MINE
Join
`)
	tg := &Target{NsPerUnit: 4, Level: Fused}
	nd, n := tg.Next(prog.Body, 0)
	reg := nd.Region
	if nd.Stmt != nil || nd.Loop.Do != nil || len(reg.Members) == 0 {
		t.Fatalf("no region: %+v", nd)
	}
	// The third DOALL reads B at a mirrored element, so neither the full
	// run + GSUM nor the full run fuses; the first two do.
	if len(reg.Members) != 2 || reg.Red != nil || n != 2 || reg.Members[0].Deal != Block || reg.Members[1].Deal != Block {
		t.Errorf("region = %d members, red %v, covers %d, deals %v %v; want 2, nil, 2, block, block",
			len(reg.Members), reg.Red, n, reg.Members[0].Deal, reg.Members[1].Deal)
	}
	for _, m := range reg.Members {
		if !m.Open || m.Rider != nil || m.Grant != 1 {
			t.Errorf("member at line %d: open %v, rider %v, grant %d; want an open, riderless, prescheduled loop", m.Do.Pos(), m.Open, m.Rider, m.Grant)
		}
	}
	if b, _ := prog.Scope.Lookup("B"); reg.Members[0].Plan == nil || !reg.Members[1].Plan.Disjoint[b] {
		t.Errorf("member plans missing or wrong: %+v", reg.Members)
	}
	if nd.Declined != "members at lines 10 and 13 conflict on B" {
		t.Errorf("Declined = %q, want the full run's reason", nd.Declined)
	}
	// Re-scanning the remainder: one DOALL plus the GSUM fold into a join —
	// over the footprint the first scan walked, not a second walk.
	walked := tg.sums[2]
	nd, n = tg.Next(prog.Body, 2)
	rest := nd.Region
	if len(rest.Members) != 1 || rest.Red == nil || n != 2 || rest.Fold != Sum || rest.Store != StoreOnce || rest.Members[0].Deal != Block {
		t.Fatalf("remainder did not fuse with its reduction tail: %+v", nd)
	}
	if nd.Declined != "" {
		t.Errorf("the remainder fused whole, yet Declined = %q", nd.Declined)
	}
	if walked == nil || rest.Members[0].Plan.sum != walked {
		t.Error("the remainder's body was summarised again")
	}
}

// TestDoAllDecisions: below level Fused every DOALL is a Loop on its own,
// carrying how a prescheduled one is dealt and why, what a selfscheduled
// one is granted, and why one has no plan.
func TestDoAllDecisions(t *testing.T) {
	prog := parse(t, `Force NAR of NP ident ME
Shared Integer OWNER(8)
Shared Integer N
Private Integer I
End Declarations
Presched DO I = 1, 8
  OWNER(I) = ME
End Presched DO
Selfsched DO I = 1, 8
  OWNER(I) = I
End Selfsched DO
Presched DO I = 1, 8
  Critical C
    N = N + 1
  End Critical
End Presched DO
Join
`)
	var loops []Loop
	for i := range prog.Body {
		nd, n := (&Target{NsPerUnit: 4, Level: Planned}).Next(prog.Body, i)
		if nd.Loop.Do != prog.Body[i] || n != 1 || nd.Loop.Open || nd.Loop.Rider != nil || nd.Declined != "" {
			t.Fatalf("statement %d: %+v covering %d, want the DOALL alone, closed", i, nd, n)
		}
		loops = append(loops, nd.Loop)
	}
	if l := loops[0]; l.Plan == nil || l.Deal != Cyclic || l.DealtBy != l.Plan || l.DealtBy.CyclicWhy != "reads private" || l.DealtBy.CyclicName != "ME" {
		t.Errorf("OWNER(I) = ME: %+v, want a plan dealt cyclically because it reads private ME", l)
	}
	if l := loops[1]; l.Plan == nil || l.Deal != Self || l.Grant != 250 { // OWNER(I) = I: 3 units + the loop's 1, at 4 ns
		t.Errorf("selfscheduled OWNER(I) = I: %+v, want a plan granted 250 ordinals", l)
	}
	if l := loops[2]; l.Plan != nil || l.Deal != Cyclic || l.Grant != 1 || l.Unplanned != "Critical in body" {
		t.Errorf("Critical body: %+v, want no plan because of the Critical, dealt cyclically", l)
	}
}

// TestDoAllDecisionsFromFacts: the deal reads what the flow analysis
// proves at the loop's entry.  A private the body only reads is no reason
// for the cyclic deal when it holds one value in every process — a
// sequential DO's index over literal bounds, a literal assigned on the
// uniform path — and is one when it may not: copied from shared storage,
// assigned under a varying IF, taken from a subroutine's parameter; a
// private the body writes is one either way.
func TestDoAllDecisionsFromFacts(t *testing.T) {
	chain, privates := "", "P15"
	for k := 1; k < 15; k++ {
		chain, privates = chain+fmt.Sprintf("P%d = P%d\n", k, k+1), privates+fmt.Sprintf(", P%d", k)
	}
	for _, tc := range []struct {
		name, prelude, body, why string
	}{
		{"sequential DO index", "DO R = 1, 4", "A(I) = I + R", ""},
		{"literal", "K = 3", "A(I) = I * K", ""},
		{"NP", "K = NP", "A(I) = I * K", ""},
		{"zero", "K = 0", "A(I) = MOD(I, K)", ""},
		{"copied from shared", "K = S", "A(I) = I * K", "reads private K"},
		{"under a varying IF", "IF (ME .EQ. 0) THEN\nK = 3\nEnd IF", "A(I) = I * K", "reads private K"},
		{"sequential DO over shared bounds", "DO R = 1, S", "A(I) = I + R", "reads private R"},
		{"written in the body", "K = 3", "K = I\nA(I) = K", "writes private K"},
		{"read, then written", "K = 3", "A(I) = K\nK = I", "reads private K"},
		// ME reaches P1 through the chain one round of the loop's fixpoint
		// at a time: the fifteenth, past any cap on the rounds.
		{"a long copy chain", "DO R = 1, 20\n" + chain + "P15 = ME", "A(I) = I * P1", "reads private P1"},
	} {
		src := "Force DF of NP ident ME\nShared Integer A(64), S\nPrivate Integer I, K, R, " + privates + "\nEnd Declarations\n" + tc.prelude +
			"\nPresched DO I = 1, 64\n" + tc.body + "\nEnd Presched DO\n"
		if strings.HasPrefix(tc.prelude, "DO ") {
			src += "End DO\n"
		}
		prog := parse(t, src+"Join\n")
		l := loopAt(t, prog)
		if why := strings.TrimSpace(l.DealtBy.CyclicWhy + " " + l.DealtBy.CyclicName); why != tc.why || (l.Deal == Block) != (tc.why == "") {
			t.Errorf("%s: dealt %d (%q), want %q", tc.name, l.Deal, why, tc.why)
		}
	}
	// A callee writes the caller's private through its parameter — a
	// scalar or an element argument, the parameter declared Private or
	// Shared — and the call leaves the private at the level the callee
	// stored: varying for ME, uniform for a literal or when the callee
	// only reads it.
	for _, tc := range []struct{ decl, arg, store, why string }{
		{"Private", "K", "P = ME", "reads private K"},
		{"Shared", "K", "P = ME", "reads private K"},
		{"Private", "ARR(1)", "P = ME", "reads private ARR"},
		{"Shared", "ARR(1)", "P = ME", "reads private ARR"},
		{"Shared", "K", "P = 3", ""},
		{"Private", "ARR(1)", "P = 3", ""},
		{"Shared", "ARR(1)", "J = P", ""},
	} {
		prog := parse(t, "Force DC of NP ident ME\nShared Integer A(64)\nPrivate Integer I, K, ARR(2)\nEnd Declarations\n"+
			"K = 0\nARR(1) = 0\nCall SETME("+tc.arg+")\nPresched DO I = 1, 64\nA(I) = I + "+tc.arg+"\nEnd Presched DO\nJoin\n"+
			"Forcesub SETME(P)\n"+tc.decl+" Integer P\nPrivate Integer J\nEnd Declarations\n"+tc.store+"\nEndsub\n")
		l := loopAt(t, prog)
		if why := strings.TrimSpace(l.DealtBy.CyclicWhy + " " + l.DealtBy.CyclicName); why != tc.why || (l.Deal == Block) != (tc.why == "") {
			t.Errorf("%s P bound to %s, %s: dealt %d (%q), want %q", tc.decl, tc.arg, tc.store, l.Deal, why, tc.why)
		}
	}
	// A subroutine's parameter is Assumed when the subroutine is walked on
	// its own, so a private copied from it is no fact, whatever the callers
	// pass.
	prog := parse(t, "Force DP of NP ident ME\nShared Integer A(64)\nPrivate Integer J\nEnd Declarations\nJ = 3\nCall S(J)\nJoin\n"+
		"Forcesub S(P)\nShared Integer A(64)\nPrivate Integer P, I, K\nEnd Declarations\nK = P\nPresched DO I = 1, 64\nA(I) = K\nEnd Presched DO\nEndsub\n")
	tg := &Target{NsPerUnit: 4, Level: Planned, Prog: prog}
	body := prog.Subs[0].Body
	if nd, _ := tg.Next(body, 1); nd.Loop.Deal != Cyclic || nd.Loop.DealtBy.CyclicName != "K" {
		t.Errorf("K = P: dealt %d (%s %s), want cyclic because of K", nd.Loop.Deal, nd.Loop.DealtBy.CyclicWhy, nd.Loop.DealtBy.CyclicName)
	}
}

// loopAt lowers prog's first DOALL, at any depth of sequential DOs, on a
// target that reads the program's facts.
func loopAt(t *testing.T, prog *forcelang.Program) Loop {
	t.Helper()
	tg := &Target{NsPerUnit: 4, Level: Planned, Prog: prog}
	list := prog.Body
	for i := 0; i < len(list); i++ {
		switch st := list[i].(type) {
		case *forcelang.ParDo:
			nd, _ := tg.Next(list, i)
			return nd.Loop
		case *forcelang.SeqDo:
			list, i = st.Body, -1
		}
	}
	t.Fatal("no DOALL")
	return Loop{}
}

// TestWrappingCoefficientStaysCyclic: a subscript whose literal coefficient
// wraps in int64 — A(2^62 * I + 1) is A(1) at I = 0 and at I = 4 — is not
// an injective form (Space.Coef answers only within ±2³¹), so the
// store is not proven disjoint: the loop keeps the cyclic deal, with the
// reason, and the same-pid argument of fusion does not excuse the array.
func TestWrappingCoefficientStaysCyclic(t *testing.T) {
	prog := parse(t, `Force WRAP of NP ident ME
Shared Integer A(8), B(8)
Private Integer I
End Declarations
Presched DO I = 0, 4, 4
  A(4611686018427387904 * I + 1) = I + 10
End Presched DO
Presched DO I = 0, 4, 4
  B(I + 1) = A(4611686018427387904 * I + 1)
End Presched DO
Join
`)
	tg := &Target{NsPerUnit: 4, Level: Fused}
	nd, n := tg.Next(prog.Body, 0)
	a, _ := prog.Scope.Lookup("A")
	if nd.Loop.Do != prog.Body[0] || n != 1 || nd.Loop.Plan == nil || nd.Loop.Deal != Cyclic || nd.Loop.Plan.Disjoint[a] {
		t.Errorf("first loop: %+v covering %d, want a lone planned DOALL, dealt cyclically, A not disjoint", nd, n)
	}
	if p := nd.Loop.DealtBy; p == nil || p.CyclicWhy != "non-disjoint, non-accumulator write of shared" || p.CyclicName != "A" {
		t.Errorf("first loop: dealt cyclically by %+v, want the write of shared A", p)
	}
	if nd.Declined != "members at lines 5 and 8 conflict on A" {
		t.Errorf("Declined = %q, want the conflict on A", nd.Declined)
	}
	if nd, _ := tg.Next(prog.Body, 1); nd.Loop.Deal != Block {
		t.Errorf("second loop (B(I + 1), reading A): deal %v, want blocks", nd.Loop.Deal)
	}
}

// TestGrant pins the static cost model and the grant derived from it, on
// the bodies the benchmark runs: a claim buys GrantNs of work, so the
// cheap bodies of heat-sweeps and dotsum take their 32-iteration loops
// whole and well over 16 ordinals of a long one, matvec's literal inner DO
// is counted and leaves a small grant, a sequential DO whose trip count is
// not a literal (selfsched-tri) makes the cost unbounded, and an unbounded
// or unplanned body keeps the paper's one iteration per claim.
func TestGrant(t *testing.T) {
	prog := parse(t, `Force GR of NP ident ME
Shared Real T(34), TNEW(34)
Shared Integer X(64), Y(64), M(12,12), V(12), W(12)
Shared Integer N, TOTAL
Private Integer I, J, S, MINE
Private Real D, DMINE
End Declarations
Selfsched DO I = 2, N - 1
  TNEW(I) = (T(I - 1) + T(I + 1)) / 2.0
End Selfsched DO
Selfsched DO I = 2, N - 1
  D = ABS(TNEW(I) - T(I))
  IF (D .GT. DMINE) THEN
    DMINE = D
  End IF
  T(I) = TNEW(I)
End Selfsched DO
Selfsched DO I = 1, N
  MINE = MINE + X(I) * Y(I) + S
End Selfsched DO
Selfsched DO I = 1, 12
  S = 0
  DO J = 1, 12
    S = S + M(I, J) * V(J)
  End DO
  W(I) = S
End Selfsched DO
Selfsched DO I = 1, 40
  DO J = 1, I
    MINE = MINE + J
  End DO
End Selfsched DO
Selfsched DO I = 1, 40
  Critical C
    TOTAL = TOTAL + I
  End Critical
End Selfsched DO
Selfsched DO I = 1, 40
  IF (I .GT. 20) THEN
    DO J = 10, 1, -3
      MINE = MINE + J
    End DO
  ELSE
    MINE = MINE - 1
  End IF
End Selfsched DO
Presched DO I = 1, N
  X(I) = I
End Presched DO
Selfsched DO I = -9000000000000000000, 9000000000000000000
  MINE = MINE + 1
End Selfsched DO
Join
`)
	tg := &Target{NsPerUnit: 4, Level: Planned}
	for i, tc := range []struct {
		name        string
		cost, grant int // cost 0: unbounded; -1: no plan at all
	}{
		{"heat-sweeps relax", 11, 91},
		{"heat-sweeps residual", 18, 56},
		{"dotsum", 11, 91},
		{"matvec (literal inner DO)", 126, 8},
		{"selfsched-tri (DO J = 1, I)", 0, 1},
		{"unplanned (Critical)", -1, 1},
		{"dearer IF branch, negative literal step", 25, 40},
		{"prescheduled: not counted", 0, 1},
		{"1.8·10^19 trips: more than one grant", 4, 250},
	} {
		nd, _ := tg.Next(prog.Body, i)
		p := nd.Loop.Plan
		if (p == nil) != (tc.cost < 0) {
			t.Fatalf("%s: plan %v", tc.name, p)
		}
		if p != nil && p.Cost != tc.cost {
			t.Errorf("%s: cost %d units, want %d", tc.name, p.Cost, tc.cost)
		}
		if got := nd.Loop.Grant; got != tc.grant {
			t.Errorf("%s: grant %d, want %d", tc.name, got, tc.grant)
		}
		if p == nil && nd.Loop.Unplanned != "Critical in body" {
			t.Errorf("%s: Unplanned %q, want the Critical", tc.name, nd.Loop.Unplanned)
		}
		if presched := nd.Loop.Do.Sched == forcelang.Presched; presched != (nd.Loop.Deal == Block) || !presched && nd.Loop.Deal != Self {
			t.Errorf("%s: deal %v", tc.name, nd.Loop.Deal)
		}
	}
	// The same body on a back end four times as fast per unit.
	if nd, _ := (&Target{NsPerUnit: 1, Level: Planned}).Next(prog.Body, 2); nd.Loop.Grant != 364 {
		t.Errorf("dotsum at 1 ns per unit: grant %d, want 364", nd.Loop.Grant)
	}
	// A back end with a block form is sized by it where the body is
	// element-wise (the relaxation, the residual, dotsum) and by NsPerUnit
	// where it is not.
	block := &Target{NsPerUnit: 4, NsPerBlockUnit: 1, Level: Planned}
	for i, want := range []int{364, 223, 364, 8} {
		if nd, _ := block.Next(prog.Body, i); nd.Loop.Grant != want {
			t.Errorf("loop %d with a block form at 1 ns per unit: grant %d (PerIter %q), want %d", i, nd.Loop.Grant, nd.Loop.Plan.PerIter, want)
		}
	}
}

// TestElementwise pins Plan.PerIter — which bodies a back end may evaluate
// a block of indices at a time, and the first reason for the others — and
// the recurrence matcher it stands on.
func TestElementwise(t *testing.T) {
	for _, tc := range []struct {
		body  string
		terms int // of the first statement read as a private recurrence; 0: none
		why   string
	}{
		{"A(I) = A(I) * 0.5 + B(N + 1 - I)", 0, ""},
		{"K = K + L(I) * L(I) - I", 2, ""},
		{"K = I + K", 1, ""},
		{"X = X - A(I)", 1, ""},
		{"X = MAX(X, A(I) * 2.0)", 1, ""},
		{"X = X + I\nK = MIN(K, L(I))\nA(I) = REAL(K0) + MOD(B(I), 3.0)\nBIG = MAX(BIG, A(I))\nTOT = TOT + I", 1, ""},
		{"X = X + A(I) + B(I)", 0, "writes private X, not one recurrence"}, // a REAL chain would re-associate
		{"K = L(I) - K", 0, "writes private K, not one recurrence"},
		{"K = K + K0 * K", 0, "writes private K, not one recurrence"},
		{"X = X + K", 1, ""},
		{"K = K + A(I)", 0, "writes private K, not one recurrence"}, // the store would truncate
		{"K = K + L(I)\nL(I) = K", 1, "reads private K outside its recurrence"},
		{"K = K + 1\nK = K + L(I)", 1, "writes private K, not one recurrence"},
		{"A(I) = A(I + 1)", 0, "writes A, not proven disjoint"},
		{"A(K0) = B(I)", 0, "writes A, not proven disjoint"},
		{"BIG = MAX(BIG, A(I))\nBIG = MAX(BIG, B(I))", 0, "writes BIG, not one folded accumulator"},
		{"TOT = TOT + 1\nTOT = TOT + L(I)", 0, ""}, // INTEGER folds commute
		{"TOT = I", 0, "writes TOT, not one folded accumulator"},
		{"IF (I .GT. 3) THEN\nA(I) = 0.0\nEnd IF", 0, "IF"},
		{"DO K = 1, 2\nA(I) = 0.0\nEnd DO", 0, "sequential DO"},
		// A nonzero literal divisor cannot raise; any other divisor can.
		{"L(I) = L(I) / 2", 0, ""},
		{"L(I) = MOD(I, 3)", 0, ""},
		{"L(I) = MOD(I, -3)", 0, ""},
		{"L(I) = MOD(I, K0)", 0, "integer MOD"},
		{"L(I) = MOD(I, 0)", 0, "integer MOD"},
		{"L(I) = L(I) / K0", 0, "integer /"},
		{"L(I) = L(I) / 0", 0, "integer /"},
		{"A(I) = SQRT(B(I))", 0, "SQRT"},
		{"A(I) = B(L(I))", 0, "checks B per iteration"},
		{"A(I) = W(2)", 0, "checks W per iteration"},
		{"W(2) = A(I)", 0, "writes private W, not one recurrence"},
		{"F(I) = A(I) .GT. 0.0", 0, "LOGICAL F"},
		// A temporary: stored once, first thing, read after.
		{"D = A(I) - B(I)\nA(I) = D * D\nX = X + D", 0, ""},
		{"K = L(I) * 2\nL(I) = K + MOD(K, 3)", 0, ""},
		{"A(I) = D\nD = B(I)", 0, "writes private D, not one recurrence"},
		{"D = B(I)\nD = D + 1.0", 0, "writes private D, not one recurrence"},
		{"D = B(I)\nIF (D .GT. 0.0) THEN\nA(I) = D\nEnd IF", 0, "IF"},
		{"K = I\nL(I) = MOD(I, K)", 0, "integer MOD"},
		// The conditional extremum, a MAX or MIN recurrence.
		{"IF (A(I) .GT. X) THEN\nX = A(I)\nEnd IF", 1, ""},
		{"IF (X .LT. A(I) * 2.0) THEN\nX = A(I) * 2.0\nEnd IF", 1, ""},
		{"IF (L(I) .LT. K) THEN\nK = L(I)\nEnd IF", 1, ""},
		{"IF (K .GT. L(I) - I) THEN\nK = L(I) - I\nEnd IF", 1, ""},
		{"D = ABS(A(I) - B(I))\nIF (D .GT. X) THEN\nX = D\nEnd IF\nB(I) = A(I)", 0, ""},
		{"IF (A(I) .GE. X) THEN\nX = A(I)\nEnd IF", 0, "IF"}, // a tie replaces X
		{"IF (X .LE. A(I)) THEN\nX = A(I)\nEnd IF", 0, "IF"},
		{"IF (L(I) .GT. X) THEN\nX = L(I)\nEnd IF", 0, "IF"}, // a mixed compare
		{"IF (A(I) .GT. BIG) THEN\nBIG = A(I)\nEnd IF", 0, "IF"},
		{"IF (A(I) .GT. X) THEN\nX = B(I)\nEnd IF", 0, "IF"},
		{"IF (A(I) .GT. X) THEN\nX = A(I)\nElse\nX = 0.0\nEnd IF", 0, "IF"},
		{"IF (A(I) .GT. X) THEN\nX = A(I)\nEnd IF\nB(I) = X", 1, "reads private X outside its recurrence"},
		{"IF (SQRT(A(I)) .GT. X) THEN\nX = SQRT(A(I))\nEnd IF", 1, "SQRT"},
	} {
		prog := parse(t, "Force EW of NP ident ME\nShared Real A(64), B(64), BIG\nShared Integer L(64), N, TOT\nShared Logical F(64)\n"+
			"Private Integer I, K, K0, K1\nPrivate Real X, D, W(4)\nEnd Declarations\nPresched DO I = 1, 63\n"+tc.body+"\nEnd Presched DO\nJoin\n")
		loop := prog.Body[0].(*forcelang.ParDo)
		p, reason := Classify(loop)
		if p == nil {
			t.Fatalf("%q: no plan: %s", tc.body, reason)
		}
		if p.PerIter != tc.why {
			t.Errorf("%q: PerIter %q, want %q", tc.body, p.PerIter, tc.why)
		}
		if _, terms := MatchRecur(loop.Body[0]); len(terms) != tc.terms {
			t.Errorf("%q: MatchRecur finds %d terms, want %d", tc.body, len(terms), tc.terms)
		}
	}
	// Hoists applies the same rule: a uniform MOD by a nonzero literal is
	// evaluated once per construct, one by a uniform scalar is not.
	for _, tc := range []struct {
		expr   string
		hoists bool
	}{{"MOD(K0, 3)", true}, {"MOD(K0, K1)", false}} {
		prog := parse(t, "Force EWH of NP ident ME\nShared Integer L(64)\nPrivate Integer I, K0, K1\nEnd Declarations\n"+
			"Presched DO I = 1, 63\nL(I) = "+tc.expr+"\nEnd Presched DO\nJoin\n")
		loop := prog.Body[0].(*forcelang.ParDo)
		p, reason := Classify(loop)
		if p == nil {
			t.Fatalf("%q: no plan: %s", tc.expr, reason)
		}
		if got := p.Hoists(loop.Body[0].(*forcelang.Assign).Expr); got != tc.hoists {
			t.Errorf("Hoists(%s) = %v, want %v", tc.expr, got, tc.hoists)
		}
	}
	// A divisor that folds to a nonzero constant under what the flow
	// proves at the entry cannot raise either; one the body writes, one
	// that is 0 and one with no proven value can.
	for _, tc := range []struct {
		prelude, body, why string
	}{
		{"K0 = 3", "L(I) = MOD(I, K0)", ""},
		{"K0 = 3", "L(I) = L(I) / K0", ""},
		{"K0 = 3\nK1 = K0 - 5", "L(I) = MOD(I, K1 * K0) + I / (K0 - K1)", ""},
		{"K0 = 0", "L(I) = MOD(I, K0)", "integer MOD"},
		{"K0 = 3\nK1 = K0 - 3", "L(I) = L(I) / K1", "integer /"},
		{"K0 = N", "L(I) = MOD(I, K0)", "integer MOD"},
		{"IF (ME .EQ. 0) THEN\nK0 = 3\nEnd IF", "L(I) = MOD(I, K0)", "integer MOD"},
		{"K0 = 3\nIF (N .GT. 0) THEN\nK0 = 4\nEnd IF", "L(I) = MOD(I, K0)", "integer MOD"},
		{"K0 = 3", "L(I) = MOD(I, K0)\nK0 = K0 + L(I)", "integer MOD"},
	} {
		prog := parse(t, "Force EWF of NP ident ME\nShared Integer L(64), N\nPrivate Integer I, K0, K1\nEnd Declarations\n"+
			tc.prelude+"\nPresched DO I = 1, 63\n"+tc.body+"\nEnd Presched DO\nJoin\n")
		l := loopAt(t, prog)
		if l.Plan == nil || l.Plan.PerIter != tc.why {
			t.Errorf("%q after %q: plan %+v, want PerIter %q", tc.body, tc.prelude, l.Plan, tc.why)
		}
	}
	prog := parse(t, "Force EWFH of NP ident ME\nShared Integer L(64)\nPrivate Integer I, K0, K1\nEnd Declarations\nK1 = 7\n"+
		"Presched DO I = 1, 63\nL(I) = MOD(K0, K1)\nEnd Presched DO\nJoin\n")
	if l := loopAt(t, prog); !l.Plan.Hoists(l.Do.Body[0].(*forcelang.Assign).Expr) {
		t.Errorf("MOD(K0, K1) after K1 = 7 does not hoist")
	}
	prog = parse(t, "Force EW2 of NP ident ME\nShared Real A(8, 8)\nPrivate Integer I, J\nEnd Declarations\n"+
		"Presched DO I = 1, 8 also J = 1, 8\nA(I, J) = 0.0\nEnd Presched DO\nJoin\n")
	if p, _ := Classify(prog.Body[0].(*forcelang.ParDo)); p.PerIter != "two-index space" {
		t.Errorf("two indices: PerIter %q", p.PerIter)
	}
}

// TestRider pins which Barrier statements ride a closing collective: the
// one directly behind a DOALL, a fused region or a global reduction into a
// plain scalar — not one behind anything else, not a second one, and not
// one behind a reduction into an array element.
func TestRider(t *testing.T) {
	prog := parse(t, `Force RD of NP ident ME
Shared Real A(64), B(64)
Shared Real TOT, PART(8)
Shared Logical ANY
Private Integer I
Private Real MINE
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Barrier
  TOT = 0.0
End Barrier
Barrier
End Barrier
Presched DO I = 1, 64
  B(I) = 1.0
End Presched DO
Presched DO I = 1, 64
  A(I) = 2.0
End Presched DO
Barrier
End Barrier
Selfsched DO I = 1, 64
  MINE = MINE + A(I)
End Selfsched DO
GSUM TOT = MINE
Barrier
  Print TOT
End Barrier
GOR ANY = MINE .GT. 1.0
Barrier
  Print ANY
End Barrier
GSUM PART(ME + 1) = MINE
Barrier
  Print PART(1)
End Barrier
MINE = 0.0
Barrier
End Barrier
Join
`)
	tg := &Target{NsPerUnit: 4, Level: Fused}
	body := prog.Body
	// 0: DOALL, 1: Barrier (rides, and has a section), 2: Barrier (its own episode).
	if nd, n := tg.Next(body, 0); nd.Loop.Do != body[0] || pos(nd.Loop.Rider) != 11 || n != 2 || !nd.Loop.Open || len(nd.Loop.Section) != 1 {
		t.Errorf("Barrier behind a DOALL: %+v covering %d, want the lone DOALL open, the Barrier at line 11 riding, 2 statements", nd, n)
	}
	if nd, n := tg.Next(body, 2); nd.Stmt != body[2] || n != 1 {
		t.Errorf("Barrier behind a Barrier: %+v covering %d, want the statement itself", nd, n)
	}
	// 3, 4: a fused pair, 5: its (empty) rider.
	if nd, n := tg.Next(body, 3); len(nd.Region.Members) != 2 || pos(nd.Region.Rider) != 22 || n != 3 || nd.Region.Section != nil {
		t.Errorf("fused pair: %+v covering %d, want the Barrier at line 22 riding with nothing to run, 3 statements", nd, n)
	}
	// 6: DOALL + 7: GSUM join, 8: rider.
	if nd, n := tg.Next(body, 6); len(nd.Region.Members) != 1 || nd.Region.Red == nil || pos(nd.Region.Rider) != 28 || n != 3 || len(nd.Region.Section) != 1 {
		t.Errorf("DOALL + GSUM: %+v covering %d, want the Barrier at line 28 riding, 3 statements", nd, n)
	}
	// 9: a standalone logical reduction, 10: rider.
	if nd, n := tg.Next(body, 9); nd.Region.Red != body[9] || len(nd.Region.Members) != 0 || pos(nd.Region.Rider) != 32 || n != 2 || nd.Region.Fold != Or {
		t.Errorf("Barrier behind GOR: %+v covering %d, want a memberless region, the Barrier at line 32 riding", nd, n)
	}
	// 11: a reduction into an array element, 12: its Barrier stays.
	if nd, n := tg.Next(body, 11); nd.Region.Red != body[11] || nd.Region.Rider != nil || n != 1 || nd.Region.Store != StoreEachSerialised {
		t.Errorf("Barrier behind a reduction into PART(ME + 1): %+v covering %d, want no rider", nd, n)
	}
	if nd, n := tg.Next(body, 12); nd.Stmt != body[12] || n != 1 {
		t.Errorf("the Barrier behind it: %+v covering %d, want the statement itself", nd, n)
	}
	// 13: an assignment, 14: a Barrier, the list's last statement.
	if nd, n := tg.Next(body, 13); nd.Stmt != body[13] || n != 1 {
		t.Errorf("Barrier behind an assignment rides: %+v covering %d", nd, n)
	}
	if nd, n := tg.Next(body, 14); nd.Stmt != body[14] || n != 1 {
		t.Errorf("the last statement: %+v covering %d", nd, n)
	}
}

// summaryProg exercises every statement kind Summarize records, inside a
// subroutine so parameters appear.  Line numbers matter: the table below
// pins first-write lines.
const summaryProg = `Force SUMM of NP ident ME
Shared Real A(8)
Async Integer Q(4)
End Declarations
Call WORK(A)
Join
Forcesub WORK(P)
Shared Real P(8)
Shared Real B(8), C(8)
Shared Integer S, TOP, FLAG, LIM, N
Private Integer I, J, K, T, W
Private Real X
End Declarations
B(I) = C(I + 1) + X
IF (S .GT. 0) THEN
  S = S + 1
END IF
DO J = 1, LIM
  TOP = MAX(TOP, J)
End DO
DO WHILE (K .LT. 2)
  K = K + 1
End DO
Critical LOCK
  N = N + 1
End Critical
Critical LOCK
  T = N
End Critical
FLAG = LIM
Produce Q(I) = T
Consume Q(J) into B(J)
Copy Q(1) into T
Void Q(K)
Print X, 'text', C(2)
Call WORK(C)
Call BUMP(N, B(3))
P(1) = 0.0
Askfor W = 3
  Put W - 1
End Askfor
GSUM X = B(1)
Endsub
Forcesub BUMP(Y, Z)
Shared Integer Y
Shared Real Z
End Declarations
Y = Y + 1
Endsub
`

// TestSummarize pins what the one footprint walker records, statement
// kind by statement kind.
func TestSummarize(t *testing.T) {
	prog := parse(t, summaryProg)
	sub := prog.Sub("WORK")
	sum := Summarize(sub.Body)
	if sum.NotSpan != "DO WHILE in body" {
		t.Errorf("NotSpan = %q, want the DO WHILE (the first statement no span may run)", sum.NotSpan)
	}
	if !sum.Param {
		t.Error("Param not set: P is a by-reference parameter")
	}
	type want struct {
		reads, writes, accWrites, first int32
		elems                           int
		varies, writtenFirst            bool
		crit                            string // OneCritical
	}
	for name, w := range map[string]want{
		// An assignment target is a store; its subscripts and value read.
		"B": {reads: 2, writes: 3, first: 14, elems: 4, varies: true, writtenFirst: true}, // B(I) =, Consume into B(J), B(3) escaping, GSUM reads B(1)
		"C": {reads: 3, writes: 1, first: 36, elems: 3, varies: true},                     // C(I + 1), C(2), the whole-array Call argument
		"X": {reads: 2, writes: 1, first: 42, varies: true},                               // the reduction target is a store
		// S = S + 1 under IF: one accumulate, but the condition reads S too.
		"S": {reads: 2, writes: 1, accWrites: 1, first: 16},
		// The sequential DO index is a store with a different value each trip.
		"J":   {reads: 3, writes: 1, first: 18, varies: true, writtenFirst: true},
		"LIM": {reads: 2},
		// A store is recorded ahead of the value it reads; a value reading
		// a private varies.
		"TOP": {reads: 1, writes: 1, accWrites: 1, first: 19, varies: true, writtenFirst: true},
		"K":   {reads: 3, writes: 1, first: 22, varies: true},
		// Every access of N but the escaping Call argument is under LOCK.
		"N":    {reads: 3, writes: 2, accWrites: 1, first: 25, varies: true, writtenFirst: true},
		"T":    {reads: 1, writes: 2, first: 28, varies: true, writtenFirst: true}, // T = N, Copy into T
		"FLAG": {writes: 1, first: 30, writtenFirst: true},
		"I":    {reads: 3},
		"P":    {writes: 1, first: 38, writtenFirst: true},
		// The Askfor variable is bound per task.
		"W": {reads: 1, writes: 1, first: 39, varies: true, writtenFirst: true},
	} {
		sym, ok := sub.Scope.Lookup(name)
		if !ok {
			t.Fatalf("no symbol %s", name)
		}
		a := sum.Of(sym)
		if a == nil {
			t.Errorf("%s: no record", name)
			continue
		}
		got := want{a.Reads, a.Writes, a.AccWrites, a.FirstWrite, len(a.Elems), a.Varies, a.WrittenFirst, a.OneCritical()}
		if got != w {
			t.Errorf("%s: recorded %+v, want %+v", name, got, w)
		}
	}
	if q, _ := sub.Scope.Lookup("Q"); sum.Of(q) != nil {
		t.Error("the async variable Q has a record: only what its statements read and fill is tracked")
	}

	// The proofs, over the same record.
	sym := func(name string) *forcelang.Symbol { s, _ := sub.Scope.Lookup(name); return s }
	if _, ok := sum.Of(sym("TOP")).Accumulator(); !ok {
		t.Error("TOP = MAX(TOP, J) alone is a pure accumulator")
	}
	if _, ok := sum.Of(sym("S")).Accumulator(); ok {
		t.Error("S is read by the IF condition: not a pure accumulator")
	}
	if !sum.IdempotentStores(sym("FLAG")) {
		t.Error("FLAG = LIM stores an unwritten shared value: idempotent")
	}
	if sum.IdempotentStores(sym("T")) || sum.IdempotentStores(sym("LIM")) {
		t.Error("a consumed value, or a name never stored, is not an idempotent store")
	}
	if sum.Space(sym("I"), nil).Disjoint(sum.Of(sym("B")).Elems) {
		t.Error("B is reached through four subscript forms: not disjoint")
	}
	if lone := Summarize(sub.Body[:1]); !lone.Space(sym("I"), nil).Disjoint(lone.Of(sym("B")).Elems) {
		t.Error("B(I) alone is injective in I")
	}

	// A list under one Critical: every access of N sits under LOCK.
	crit := Summarize(sub.Body[4:6])
	if got := crit.Of(sym("N")).OneCritical(); got != "LOCK" {
		t.Errorf("OneCritical(N) = %q, want LOCK", got)
	}
	if got := sum.Of(sym("N")).OneCritical(); got != "" {
		t.Errorf("OneCritical(N) = %q over the whole body, where a Call argument escapes outside", got)
	}
	// Only Assign, IF and sequential DO over a private index are span
	// statements; a store through a parameter is not.
	if got := Summarize(sub.Body[:3]).NotSpan; got != "" {
		t.Errorf("span-executable prefix: NotSpan = %q", got)
	}
	if got := Summarize(sub.Body[14:15]).NotSpan; got != "assignment through parameter P" {
		t.Errorf("P(1) = 0.0: NotSpan = %q", got)
	}
}

// TestMergeIsConcatenation: merging the footprints of two lists is the
// footprint of their concatenation, record for record — what lets the
// fusion proof walk every member body once.
func TestMergeIsConcatenation(t *testing.T) {
	prog := parse(t, summaryProg)
	body := prog.Sub("WORK").Body
	for cut := 0; cut <= len(body); cut++ {
		whole := Summarize(body)
		merged := merge([]*Summary{Summarize(body[:cut]), Summarize(body[cut:])})
		if merged.NotSpan != whole.NotSpan || merged.Param != whole.Param || len(merged.stores) != len(whole.stores) {
			t.Fatalf("cut %d: list facts differ: %q/%v/%d vs %q/%v/%d", cut,
				merged.NotSpan, merged.Param, len(merged.stores), whole.NotSpan, whole.Param, len(whole.stores))
		}
		if len(merged.Accesses()) != len(whole.Accesses()) {
			t.Fatalf("cut %d: %d records, want %d", cut, len(merged.Accesses()), len(whole.Accesses()))
		}
		for i, w := range whole.Accesses() {
			m := merged.Accesses()[i]
			if fmt.Sprintf("%+v", *m) != fmt.Sprintf("%+v", *w) {
				t.Errorf("cut %d, %s:\nmerged %+v\nwhole  %+v", cut, w.Sym.Name, *m, *w)
			}
		}
	}
}

// TestSpanCheck pins the one rule for which element references a back end
// with a span form range-checks per span, shape by shape: the reference
// tested is the first assignment's target (rows marked drop lose its last
// subscript, a shape the checker rejects in source), and a target with a
// span form counts the body's checked and shared-array element references
// on the node, one without counts none.
func TestSpanCheck(t *testing.T) {
	for _, tc := range []struct {
		name, loop     string
		drop           bool
		coef           [2]int64
		ok             bool
		checked, elems int
	}{
		{"affine, unwritten rest", "Presched DO I = 1, 8\n  A(2*I + K) = 0.0\nEnd Presched DO", false, [2]int64{2}, true, 1, 1},
		{"two subscripts", "Presched DO I = 1, 8\n  M(I, 3) = 0.0\nEnd Presched DO", false, [2]int64{1, 0}, true, 1, 1},
		{"private array", "Presched DO I = 1, 4\n  W(I) = 0.0\nEnd Presched DO", false, [2]int64{}, false, 0, 0},
		{"wrong subscript count", "Presched DO I = 1, 8\n  M(I, 3) = 0.0\nEnd Presched DO", true, [2]int64{}, false, 1, 1},
		{"not affine", "Presched DO I = 1, 8\n  A(I*I) = 0.0\nEnd Presched DO", false, [2]int64{}, false, 0, 1},
		{"sequential-DO index in the rest", "Presched DO I = 1, 8\n  DO J = 1, 2\n    A(I + J) = 0.0\n  End DO\nEnd Presched DO", false, [2]int64{}, false, 0, 1},
		{"two-index space", "Presched DO I = 1, 8 also J = 1, 8\n  M(I, J) = 0.0\nEnd Presched DO", false, [2]int64{}, false, 0, 1},
		{"parameter in the body", "Call PS(K)\nJoin\nForcesub PS(P)\nShared Integer P\nShared Real A(64)\nPrivate Integer I\nEnd Declarations\n" +
			"Presched DO I = 1, 8\n  A(I) = REAL(P)\nEnd Presched DO\nEndsub", false, [2]int64{}, false, 0, 1},
	} {
		src := "Force SC of NP ident ME\nShared Real A(64), M(8, 8)\nShared Integer K\nPrivate Integer I, J\nPrivate Real W(4)\nEnd Declarations\n" + tc.loop + "\n"
		if !strings.Contains(tc.loop, "Endsub") {
			src += "Join\n"
		}
		prog := parse(t, src)
		body := prog.Body
		if sub := prog.Sub("PS"); sub != nil {
			body = sub.Body
		}
		loop := body[0].(*forcelang.ParDo)
		st := loop.Body[0]
		if do, ok := st.(*forcelang.SeqDo); ok {
			st = do.Body[0]
		}
		target := &st.(*forcelang.Assign).Target
		if tc.drop {
			r := *target
			r.Subs = r.Subs[:len(r.Subs)-1]
			target = &r
		}
		span, _ := (&Target{NsPerUnit: 4, NsPerBlockUnit: 1, Level: Planned}).Next(body, 0)
		p := span.Loop.Plan
		if p == nil {
			t.Fatalf("%s: no plan: %s", tc.name, span.Loop.Unplanned)
		}
		if coef, ok := p.SpanCheck(target); ok != tc.ok || ok && coef != tc.coef {
			t.Errorf("%s: SpanCheck = %v, %v; want %v, %v", tc.name, coef, ok, tc.coef, tc.ok)
		}
		if l := span.Loop; len(l.SpanChecked) != tc.checked || l.ElemRefs != tc.elems || tc.checked == 1 && l.SpanChecked[0] != &st.(*forcelang.Assign).Target {
			t.Errorf("%s: node lists %v of %d span-checked, want %d of %d", tc.name, l.SpanChecked, l.ElemRefs, tc.checked, tc.elems)
		}
		if none, _ := (&Target{NsPerUnit: 4, Level: Planned}).Next(body, 0); none.Loop.SpanChecked != nil || none.Loop.ElemRefs != 0 {
			t.Errorf("%s: a target without a span form lists %v of %d", tc.name, none.Loop.SpanChecked, none.Loop.ElemRefs)
		}
	}
}

// TestSpanCheckShipped pins SpanCheck's answer per element reference on
// three shipped programs, with the coefficients.  matvec's row loop
// subscripts through its sequential DO index J, which the body writes:
// M(I, J) and X(J) answer no, Y(I) yes.
func TestSpanCheckShipped(t *testing.T) {
	type answer struct {
		arr  string
		coef [2]int64
		ok   bool
	}
	for _, tc := range []struct {
		file string
		line int // the DOALL's
		want []answer
	}{
		{"doall-stream/stream.force", 22, []answer{
			{"A", [2]int64{1}, true}, {"A", [2]int64{1}, true}, {"B", [2]int64{1}, true}}},
		{"doall-stream/stencil.force", 20, []answer{
			{"V", [2]int64{1}, true}, {"U", [2]int64{1}, true}, {"U", [2]int64{1}, true}, {"U", [2]int64{1}, true}}},
		{"script-cold/matvec.force", 16, []answer{
			{"M", [2]int64{}, false}, {"X", [2]int64{}, false}, {"Y", [2]int64{1}, true}}},
		{"script-cold/matvec.force", 8, []answer{{"M", [2]int64{}, false}}}, // a two-index space
	} {
		src, err := os.ReadFile("../../benchmark/programs/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var loop *forcelang.ParDo
		var find func(list []forcelang.Stmt)
		find = func(list []forcelang.Stmt) {
			for _, st := range list {
				switch st := st.(type) {
				case *forcelang.ParDo:
					if st.Pos() == tc.line {
						loop = st
					}
				case *forcelang.SeqDo:
					find(st.Body)
				}
			}
		}
		find(parse(t, string(src)).Body)
		if loop == nil {
			t.Fatalf("%s: no DOALL at line %d", tc.file, tc.line)
		}
		p, reason := Classify(loop)
		if p == nil {
			t.Fatalf("%s line %d: %s", tc.file, tc.line, reason)
		}
		var got []answer
		for _, a := range Summarize(loop.Body).Accesses() {
			for _, r := range a.Elems {
				coef, ok := p.SpanCheck(r)
				if !ok {
					coef = [2]int64{}
				}
				got = append(got, answer{r.Name, coef, ok})
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s line %d:\n got %v\nwant %v", tc.file, tc.line, got, tc.want)
		}
	}
}

// nextProg is one statement list holding every shape Next distinguishes.
const nextProg = `Force NX of NP ident ME
Shared Real A(64), B(64), C(64), TOT, PART(8)
Private Integer I
Private Real MINE
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 64
  B(I) = A(I) * 2.0
End Presched DO
GSUM TOT = MINE
Barrier
  Print TOT
End Barrier
Selfsched DO I = 1, 64
  C(I) = 1.0
End Selfsched DO
Barrier
End Barrier
GSUM PART(ME + 1) = MINE
Barrier
End Barrier
Presched DO I = 1, 64
  A(I) = 0.0
End Presched DO
Presched DO I = 1, 64
  B(I) = A(I) + 1.0
End Presched DO
Presched DO I = 1, 64
  C(I) = B(65 - I)
End Presched DO
Presched DO I = 1, 64
  A(I) = C(I)
End Presched DO
MINE = 0.0
Presched DO I = 1, 64
  A(I) = 1.0
End Presched DO
Presched DO I = 1, 64
  B(I) = A(65 - I)
End Presched DO
Join
`

// render spells one node: what it is, the lines it covers, and every
// decision it carries.
func render(nd Node, n int) string {
	loop := func(l Loop) string {
		s := fmt.Sprintf("%d:%s/grant=%d", l.Do.Pos(), [...]string{Cyclic: "cyclic", Block: "block", Self: "self"}[l.Deal], l.Grant)
		if l.Plan == nil {
			s += "/unplanned"
		}
		if l.Open {
			s += "/open"
		}
		return s
	}
	ride := func(bar *forcelang.BarrierStmt, section []forcelang.Stmt) string {
		if bar == nil {
			return ""
		}
		return fmt.Sprintf(" rider@%d(%d)", bar.Pos(), len(section))
	}
	switch {
	case nd.Stmt != nil:
		return fmt.Sprintf("stmt@%d n=%d", nd.Stmt.Pos(), n)
	case nd.Loop.Do != nil:
		return fmt.Sprintf("loop %s%s n=%d", loop(nd.Loop), ride(nd.Loop.Rider, nd.Loop.Section), n)
	}
	s := "region ["
	for k, m := range nd.Region.Members {
		if k > 0 {
			s += " "
		}
		s += loop(m) + ride(m.Rider, m.Section)
	}
	s += "]"
	if red := nd.Region.Red; red != nil {
		s += fmt.Sprintf(" %s@%d/%s/store=%d", red.Op, red.Pos(), nd.Region.Fold, nd.Region.Store)
	}
	return fmt.Sprintf("%s%s n=%d", s, ride(nd.Region.Rider, nd.Region.Section), n)
}

// TestNext walks one hand-written list at each level and pins the node
// list: at Fused, DOALL·DOALL·GSUM·Barrier is one Region with its rider, a
// DOALL·Barrier a Loop with its rider, a GSUM into an array element a
// Region no Barrier rides (the Barrier follows as a statement), a run whose
// third member conflicts with its second the longest provable prefix and
// then — re-scanned — the rest; at Planned every DOALL is a Loop with its
// plan and grant, every reduction a Region without members, and no Barrier
// rides; at Plain nothing is planned and nothing is declined.
func TestNext(t *testing.T) {
	prog := parse(t, nextProg)
	for _, tc := range []struct {
		level Level
		want  []string
	}{
		{Fused, []string{
			"region [6:block/grant=1/open 9:block/grant=1/open] GSUM@12/Sum/store=0 rider@13(1) n=4",
			"loop 16:self/grant=334 rider@19(0) n=2",
			"region [] GSUM@21/Sum/store=3 n=1",
			"stmt@22 n=1",
			"region [24:block/grant=1/open 27:block/grant=1/open] n=2",
			"region [30:block/grant=1/open 33:block/grant=1/open] n=2",
			"stmt@36 n=1",
			"loop 37:block/grant=1 n=1",
			"loop 40:block/grant=1 n=1",
		}},
		{Planned, []string{
			"loop 6:block/grant=1 n=1", "loop 9:block/grant=1 n=1", "region [] GSUM@12/Sum/store=0 n=1", "stmt@13 n=1",
			"loop 16:self/grant=334 n=1", "stmt@19 n=1", "region [] GSUM@21/Sum/store=3 n=1", "stmt@22 n=1",
			"loop 24:block/grant=1 n=1", "loop 27:block/grant=1 n=1", "loop 30:block/grant=1 n=1", "loop 33:block/grant=1 n=1",
			"stmt@36 n=1", "loop 37:block/grant=1 n=1", "loop 40:block/grant=1 n=1",
		}},
		{Plain, []string{
			"loop 6:cyclic/grant=1/unplanned n=1", "loop 9:cyclic/grant=1/unplanned n=1", "region [] GSUM@12/Sum/store=0 n=1", "stmt@13 n=1",
			"loop 16:self/grant=1/unplanned n=1", "stmt@19 n=1", "region [] GSUM@21/Sum/store=3 n=1", "stmt@22 n=1",
			"loop 24:cyclic/grant=1/unplanned n=1", "loop 27:cyclic/grant=1/unplanned n=1", "loop 30:cyclic/grant=1/unplanned n=1", "loop 33:cyclic/grant=1/unplanned n=1",
			"stmt@36 n=1", "loop 37:cyclic/grant=1/unplanned n=1", "loop 40:cyclic/grant=1/unplanned n=1",
		}},
	} {
		var got []string
		tg := &Target{NsPerUnit: 4, Level: tc.level}
		for i := 0; i < len(prog.Body); {
			nd, n := tg.Next(prog.Body, i)
			got = append(got, render(nd, n))
			if tc.level != Fused && nd.Declined != "" {
				t.Errorf("level %d declines a fusion at statement %d: %s", tc.level, i, nd.Declined)
			}
			i += n
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("level %d:\n%s\nwant:\n%s", tc.level, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestOneSummaryPerBody: however a run of adjacent DOALLs is cut — a prefix
// fused and the rest re-scanned, or the whole run declined into lone loops —
// each body's footprint is walked once, by the first attempt that reads it,
// and every later plan is classified from that very Summary.
func TestOneSummaryPerBody(t *testing.T) {
	body := parse(t, nextProg).Body
	tg := &Target{NsPerUnit: 4, Level: Fused}
	// Statements 8..11: the run of four; the first step fuses two and has
	// walked all four.
	nd, _ := tg.Next(body, 8)
	walked := append([]*Summary(nil), tg.sums...)
	if len(nd.Region.Members) != 2 || len(walked) != 4 || walked[2] == nil || walked[3] == nil {
		t.Fatalf("first step: %s, footprints %v", render(nd, 2), walked)
	}
	nd, _ = tg.Next(body, 10)
	for k, m := range nd.Region.Members {
		if m.Plan.sum != walked[2+k] {
			t.Errorf("re-scan: the member at line %d was summarised again", m.Do.Pos())
		}
	}
	// Statements 13, 14: a declined pair; both lone plans stand on what the
	// Region attempt read.
	first, _ := tg.Next(body, 13)
	read := append([]*Summary(nil), tg.sums...)
	second, _ := tg.Next(body, 14)
	if len(read) != 2 || first.Loop.Plan.sum != read[0] || second.Loop.Plan.sum != read[1] || read[1] == nil {
		t.Errorf("declined pair: plans stand on %p and %p, the attempt read %v", first.Loop.Plan.sum, second.Loop.Plan.sum, read)
	}
}
