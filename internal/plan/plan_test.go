package plan

// The classifier's verdicts are pinned where they are consumed:
// TestClassify* in internal/interp (the closure compiler's view) and the
// golden files in internal/codegen; what every name is bound to is pinned
// across all four tiers by TestBindingMatrix (root package).  The tests
// here cover what only this package owns: the region scan and the
// order-stability both back ends rely on.

import (
	"fmt"
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
			names = append(names, rec.Name)
			if p.Accs[rec.Name] != i {
				t.Fatalf("Accs[%s] = %d, want %d", rec.Name, p.Accs[rec.Name], i)
			}
		}
		if got := strings.Join(names, " "); got != "ABLE MID ZED" {
			t.Fatalf("round %d: accumulators in order %q", round, got)
		}
		if !p.Block() {
			t.Fatalf("all-accumulator body keeps the cyclic deal: %s %s", p.CyclicWhy, p.CyclicName)
		}
	}
}

// TestFuseScan pins the region scan: the longest provable prefix of a
// DOALL run fuses (tail first, then trailing members dropped), the
// remainder is left to the caller, and only the most ambitious decline
// is narrated.
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
	var logs []string
	lg := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	reg := Fuse(prog.Body, 0, true, lg)
	if reg == nil {
		t.Fatalf("no region; log:\n%s", strings.Join(logs, "\n"))
	}
	// The third DOALL reads B at a mirrored element, so neither the full
	// run + GSUM nor the full run fuses; the first two do.
	if len(reg.Members) != 2 || reg.Red != nil || reg.Len() != 2 || !reg.Block {
		t.Errorf("region = %d members, red %v, len %d, block %v; want 2, nil, 2, true",
			len(reg.Members), reg.Red, reg.Len(), reg.Block)
	}
	if len(reg.Plans) != 2 || reg.Plans[0] == nil || !reg.Plans[1].Disjoint["B"] {
		t.Errorf("member plans missing or wrong: %+v", reg.Plans)
	}
	want := []string{
		"line 7: fusion declined: members at lines 10 and 13 conflict on B",
		"line 7: DOALL partition=block",
		"line 10: DOALL partition=block",
		"line 7: fused 2 DOALLs, 1 exit barrier(s) elided",
	}
	if strings.Join(logs, "\n") != strings.Join(want, "\n") {
		t.Errorf("narration:\n%s\nwant:\n%s", strings.Join(logs, "\n"), strings.Join(want, "\n"))
	}
	// Re-scanning the remainder: one DOALL plus the GSUM fold into a join.
	logs = nil
	rest := Fuse(prog.Body, 2, true, lg)
	if rest == nil || len(rest.Members) != 1 || rest.Red == nil || rest.Len() != 2 {
		t.Fatalf("remainder did not fuse with its reduction tail: %+v\n%s", rest, strings.Join(logs, "\n"))
	}
	// The same tail under a non-slots strategy: a REAL sum must decline.
	logs = nil
	if reg := Fuse(prog.Body, 2, false, lg); reg != nil {
		t.Errorf("REAL GSUM folded without the slots strategy")
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "only the slots strategy reproduces") {
		t.Errorf("decline narration: %q", logs)
	}
}

// TestDoAllNarration: the unfused entry point narrates the deal of a
// prescheduled DOALL and nothing for a selfscheduled one, and a nil sink
// is accepted.
func TestDoAllNarration(t *testing.T) {
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
	var logs []string
	lg := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	var plans []*Plan
	for _, st := range prog.Body {
		plans = append(plans, DoAll(st.(*forcelang.ParDo), lg))
		DoAll(st.(*forcelang.ParDo), nil)
	}
	if plans[0] == nil || plans[0].Block() || plans[1] == nil || !plans[1].Block() || plans[2] != nil || plans[2].Block() {
		t.Errorf("plans: %+v", plans)
	}
	want := []string{
		"line 6: DOALL partition=cyclic (reads private ME)",
		"line 12: DOALL partition=cyclic (not chunk-compiled: *forcelang.CriticalStmt in body)",
	}
	if strings.Join(logs, "\n") != strings.Join(want, "\n") {
		t.Errorf("narration:\n%s\nwant:\n%s", strings.Join(logs, "\n"), strings.Join(want, "\n"))
	}
}
