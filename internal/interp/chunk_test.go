package interp

// chunk_test.go — coverage for the chunk-compiled DOALL tier: the
// equivalence matrix (every corpus program byte-identical, modulo
// print interleaving, across tree/compiled/chunked at np ∈ {1, 2, 8}),
// classification unit tests pinning down which bodies chunk and which
// fall back, and a mid-chunk abort test bounding poison latency.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/forcelang"
	"repro/internal/plan"
)

// chunkCorpus holds programs chosen to hit the chunk tier's edges:
// strides, empty ranges, two-index DOALLs, disjointness proofs and
// their failures, uniform hoisting, accumulator folding, and final
// loop-variable values.  It lives in internal/corpus so the AOT tier's
// parity sweep covers the same matrix.
var chunkCorpus = corpus.Chunk

// TestChunkEquivalence runs the chunk corpus under every engine — the
// chunk tier with the fusion pass on and off — at np ∈ {1, 2, 3, 8} and
// requires each engine's sorted output to match the tree walker's at the
// same np.
func TestChunkEquivalence(t *testing.T) {
	for _, tc := range chunkCorpus {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := forcelang.Parse(tc.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, np := range []int{1, 2, 3, 8} {
				outs := map[string]string{}
				for _, m := range fuseModes {
					var sb strings.Builder
					if err := Run(prog, Config{NP: np, Stdout: &sb, Exec: m.exec, NoFuse: m.noFuse}); err != nil {
						t.Fatalf("np=%d %s: %v", np, m.name, err)
					}
					outs[m.name] = sb.String()
				}
				tree := sortedLines(outs["tree"])
				for _, m := range fuseModes[1:] {
					got := sortedLines(outs[m.name])
					if len(got) != len(tree) {
						t.Fatalf("np=%d: line counts differ: tree %d, %s %d\ntree:\n%s\n%s:\n%s",
							np, len(tree), m.name, len(got), outs["tree"], m.name, outs[m.name])
					}
					for i := range tree {
						if got[i] != tree[i] {
							t.Errorf("np=%d line %d: tree %q, %s %q", np, i, tree[i], m.name, got[i])
						}
					}
				}
			}
		})
	}
}

// classified is a plan with the program's scope beside it, so the tests
// can ask about names.
type classified struct {
	*plan.Plan
	scope *forcelang.Scope
}

func (c *classified) sym(name string) *forcelang.Symbol {
	sym, _ := c.scope.Lookup(name)
	return sym
}

func (c *classified) disjoint(name string) bool { return c.Disjoint[c.sym(name)] }

func (c *classified) fold(name string) (int, bool) { return c.Fold(c.sym(name)) }

// classify parses src and classifies its first top-level ParDo,
// returning the plan (nil if the body fell back) and the reason.
func classify(t *testing.T, src string) (*classified, string) {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, st := range prog.Body {
		if pd, ok := st.(*forcelang.ParDo); ok {
			p, reason := plan.Classify(pd)
			if p == nil {
				return nil, reason
			}
			return &classified{p, prog.Scope}, reason
		}
	}
	t.Fatal("no ParDo in program body")
	return nil, ""
}

// TestClassifyDisjoint pins the disjointness proof: an identity
// subscript on the written array chunks with walker access, a
// non-affine subscript keeps the array on striped access, and a
// constant subscript (every iteration the same element) does too.
func TestClassifyDisjoint(t *testing.T) {
	plan, reason := classify(t, `Force C of NP ident ME
Shared Real A(64)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Join
`)
	if plan == nil {
		t.Fatalf("identity subscript fell back: %s", reason)
	}
	if !plan.disjoint("A") {
		t.Error("identity subscript not proven disjoint")
	}

	plan, reason = classify(t, `Force C of NP ident ME
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(MOD(I, 8) + 1) = 1.0
End Presched DO
Join
`)
	if plan == nil {
		t.Fatalf("non-affine subscript fell back entirely: %s", reason)
	}
	if plan.disjoint("A") {
		t.Error("MOD subscript wrongly proven disjoint")
	}

	plan, reason = classify(t, `Force C of NP ident ME
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(3) = 1.0
End Presched DO
Join
`)
	if plan == nil {
		t.Fatalf("constant subscript fell back entirely: %s", reason)
	}
	if plan.disjoint("A") {
		t.Error("constant subscript wrongly proven disjoint")
	}
}

// TestClassifyAccumulator pins accumulator folding: a shared integer
// whose only appearances are S = S ± delta folds to a private sum; a
// read of the scalar elsewhere in the body, or a real-typed delta,
// disqualifies it.
func TestClassifyAccumulator(t *testing.T) {
	plan, reason := classify(t, `Force C of NP ident ME
Shared Integer S
Private Integer I
End Declarations
Presched DO I = 1, 64
  S = S + I
End Presched DO
Join
`)
	if plan == nil {
		t.Fatalf("accumulator body fell back: %s", reason)
	}
	if _, ok := plan.fold("S"); !ok {
		t.Error("S = S + I not folded to a private sum")
	}

	plan, reason = classify(t, `Force C of NP ident ME
Shared Integer S
Shared Real A(64)
Private Integer I
End Declarations
Presched DO I = 1, 64
  S = S + I
  A(I) = REAL(S)
End Presched DO
Join
`)
	if plan == nil {
		t.Fatalf("read-elsewhere body fell back: %s", reason)
	}
	if _, ok := plan.fold("S"); ok {
		t.Error("S read outside its own update must not fold")
	}
}

// TestClassifyMinMaxAccumulator pins the extremum accumulators:
// S = MAX(S, e) / S = MIN(S, e) fold for INTEGER and REAL shared
// scalars; the argument-swapped form, a type-promoting form, and mixed
// operators on one scalar all decline.
func TestClassifyMinMaxAccumulator(t *testing.T) {
	head := `Force C of NP ident ME
Shared Integer S
Shared Real R
Private Integer I
End Declarations
`
	tail := "End Presched DO\nJoin\n"
	folds := map[string]struct {
		stmt string
		name string
		op   plan.AccOp
		real bool
	}{
		"int max":  {"S = MAX(S, I)", "S", plan.AccMax, false},
		"int min":  {"S = MIN(S, I*2)", "S", plan.AccMin, false},
		"real max": {"R = MAX(R, REAL(I))", "R", plan.AccMax, true},
		"real min": {"R = MIN(R, REAL(I)*0.5)", "R", plan.AccMin, true},
	}
	for label, tc := range folds {
		plan, reason := classify(t, head+"Presched DO I = 1, 64\n  "+tc.stmt+"\n"+tail)
		if plan == nil {
			t.Fatalf("%s fell back: %s", label, reason)
		}
		si, ok := plan.fold(tc.name)
		if !ok {
			t.Errorf("%s: %q not folded", label, tc.stmt)
			continue
		}
		rec := plan.AccRecs[si]
		if rec.Op != tc.op || rec.Real != tc.real {
			t.Errorf("%s: folded as op=%d real=%v, want op=%d real=%v",
				label, rec.Op, rec.Real, tc.op, tc.real)
		}
	}
	declines := map[string]string{
		// MAX keeps its first argument unless the second is strictly
		// greater, so only the self-first order composes with a fold.
		"swapped args": "S = MAX(I, S)",
		// INTEGER target fed by a promoted REAL MAX: the store would
		// truncate, which the fold cannot replay.
		"promoting":  "S = MAX(S, R)",
		"reads self": "S = MAX(S, S - I)",
	}
	for label, stmt := range declines {
		plan, reason := classify(t, head+"Presched DO I = 1, 64\n  "+stmt+"\n"+tail)
		if plan == nil {
			t.Fatalf("%s fell back entirely: %s", label, reason)
		}
		if _, ok := plan.fold("S"); ok {
			t.Errorf("%s: %q wrongly folded", label, stmt)
		}
	}
	// Mixed operators on one scalar cannot share a private partial.
	plan, reason := classify(t, head+"Presched DO I = 1, 64\n  S = S + I\n  S = MAX(S, I)\n"+tail)
	if plan == nil {
		t.Fatalf("mixed-op body fell back: %s", reason)
	}
	if _, ok := plan.fold("S"); ok {
		t.Error("mixed sum/MAX on one scalar wrongly folded")
	}
}

// TestClassifyFallbacks pins full-fallback conditions: collectives and
// other non-whitelisted statements, loop-index writes, and parameter
// assignment targets all send the DOALL to the per-iteration path.
func TestClassifyFallbacks(t *testing.T) {
	cases := map[string]string{
		"critical in body": `Force C of NP ident ME
Shared Integer S
Private Integer I
End Declarations
Presched DO I = 1, 8
  Critical L
    S = S + 1
  End Critical
End Presched DO
Join
`,
		"loop index written": `Force C of NP ident ME
Private Integer I
End Declarations
Presched DO I = 1, 8
  I = I + 1
End Presched DO
Join
`,
		"print in body": `Force C of NP ident ME
Private Integer I
End Declarations
Presched DO I = 1, 8
  Print I
End Presched DO
Join
`,
	}
	for name, src := range cases {
		if plan, _ := classify(t, src); plan != nil {
			t.Errorf("%s: expected fallback, got a chunk plan", name)
		}
	}
}

// TestClassifyPartition pins the mapping-insensitivity verdict behind
// the block partition: the accept cases, and the narrated reason of
// every decline rule.
func TestClassifyPartition(t *testing.T) {
	const head = `Force C of NP ident ME
Shared Real A(64), B(64)
Shared Integer G(8, 8)
Shared Integer S, LAST
Shared Real TOP
Private Integer I, J, K
Private Real T
End Declarations
`
	for _, tc := range []struct{ name, loop, body, want string }{
		{"stream", "I = 1, 64", "A(I) = A(I) * 0.5 + B(I)", ""},
		{"read-only neighbours", "I = 2, 63", "A(I) = (B(I - 1) + B(I + 1)) / 2.0", ""},
		{"accumulators", "I = 1, 64", "S = S + I\n  TOP = MAX(TOP, A(I))", ""},
		{"two-index", "I = 1, 8 also J = 1, 8", "G(I, J) = I * J", ""},
		{"shared scalar read", "I = 1, 64", "A(I) = REAL(S)", ""},
		{"private carried", "I = 1, 64", "K = K + I\n  A(I) = 1.0", "writes private K"},
		{"private temporary", "I = 1, 64", "T = B(I)\n  A(I) = T", "writes private T"},
		{"private read", "I = 1, 64", "A(I) = REAL(K)", "reads private K"},
		{"process id", "I = 1, 64", "A(I) = REAL(ME)", "reads private ME"},
		{"sequential DO index", "I = 1, 64", "DO K = 1, 2\n    A(I) = B(I)\n  End DO", "writes private K"},
		{"overlapping forms", "I = 2, 64", "A(I) = A(I - 1)", "non-disjoint, non-accumulator write of shared A"},
		{"same element", "I = 1, 64", "A(3) = B(I)", "non-disjoint, non-accumulator write of shared A"},
		{"plain scalar store", "I = 1, 64", "LAST = I", "non-disjoint, non-accumulator write of shared LAST"},
	} {
		plan, reason := classify(t, head+"Presched DO "+tc.loop+"\n  "+tc.body+"\nEnd Presched DO\nJoin\n")
		if plan == nil {
			t.Fatalf("%s fell back entirely: %s", tc.name, reason)
		}
		if got := strings.TrimSpace(plan.CyclicWhy + " " + plan.CyclicName); got != tc.want {
			t.Errorf("%s: cyclic reason = %q, want %q", tc.name, got, tc.want)
		}
	}
	// A parameter may alias anything: the subroutine's DOALL stays cyclic.
	logs := fuseLogs(t, `Force C of NP ident ME
Shared Real A(16)
End Declarations
Call FILL(A)
Join
Forcesub FILL(X)
Shared Real X(16)
Private Integer I
End Declarations
Presched DO I = 1, 16
  X(I) = 1.0
End Presched DO
Endsub
`, Config{})
	if !logsContain(logs, "line 10: DOALL partition=cyclic (") {
		t.Errorf("parameter-writing DOALL not narrated cyclic: %q", logs)
	}
}

// TestPartitionDecisions pins, through the FuseLog narration, how the
// prescheduled DOALLs of the partition-sensitive corpus programs are
// dealt: the observable ones keep the cyclic deal, the control and the
// fused chains take blocks, and a fused region with one sensitive
// member stays cyclic throughout while its unfused first member does
// not.
func TestPartitionDecisions(t *testing.T) {
	byName := map[string]string{}
	for _, fam := range [][]corpus.Program{corpus.Chunk, corpus.Fusion} {
		for _, p := range fam {
			byName[p.Name] = p.Src
		}
	}
	for _, tc := range []struct {
		prog   string
		noFuse bool
		want   []string
	}{
		{"partition-private-carry", false, []string{"line 6: DOALL partition=cyclic (writes private C)"}},
		{"partition-me-into-array", false, []string{"line 6: DOALL partition=cyclic (reads private ME)"}},
		{"partition-private-temp", false, []string{"line 7: DOALL partition=cyclic (writes private T)"}},
		{"partition-block-loop-vars", false, []string{"line 8: DOALL partition=block", "line 12: DOALL partition=block"}},
		{"loop-var-final", false, []string{"line 5: DOALL partition=block"}},
		{"fuse-presched-chain", false, []string{"line 8: DOALL partition=block", "line 11: DOALL partition=block", "line 14: DOALL partition=block"}},
		{"fuse-gsum-tail", false, []string{"line 8: DOALL partition=block", "line 11: DOALL partition=block"}},
		{"fuse-mixed-partition", false, []string{
			"line 7: DOALL partition=cyclic (reads private ME)", "line 10: DOALL partition=cyclic (reads private ME)"}},
		{"fuse-mixed-partition", true, []string{
			"line 7: DOALL partition=block", "line 10: DOALL partition=cyclic (reads private ME)"}},
	} {
		src, ok := byName[tc.prog]
		if !ok {
			t.Fatalf("no corpus program %s", tc.prog)
		}
		logs := fuseLogs(t, src, Config{NoFuse: tc.noFuse})
		for _, want := range tc.want {
			if !logsContain(logs, want) {
				t.Errorf("%s (NoFuse=%v): logs %q lack %q", tc.prog, tc.noFuse, logs, want)
			}
		}
	}
}

// TestChunkedAbortLatency errors one iteration deep inside a large
// DOALL: the failing process poisons the force mid-span and its peers,
// spinning through their own spans, must notice via the in-span poison
// checks and unwind promptly — well under the watchdog-scale timeout, at
// span sizes where waiting for the span to finish would be the bug.  Both
// lowerings share the one cadence: the planned span loop (ExecChunked)
// and the plan-less one (ExecCompiled).  And so does a span run a block at
// a time, whose body cannot fault: process 0 raises after a short
// sequential loop while its peers are deep in the blocks of a giant DOALL —
// minutes of work each — and the one poison check per full block must get
// them out.
func TestChunkedAbortLatency(t *testing.T) {
	prog := forcelang.MustParse(`Force ABT of NP ident ME
Shared Real A(400000)
Private Integer I
End Declarations
Presched DO I = 1, 400000
  A(I) = REAL(I / (I - 3))
End Presched DO
Join
`)
	for _, exec := range []ExecMode{ExecChunked, ExecCompiled} {
		for _, np := range []int{2, 8} {
			start := time.Now()
			err := Run(prog, Config{NP: np, Exec: exec})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("%v np=%d: no error", exec, np)
			}
			if !strings.Contains(err.Error(), "force runtime") {
				t.Fatalf("%v np=%d: unexpected error %v", exec, np, err)
			}
			if elapsed > 10*time.Second {
				t.Errorf("%v np=%d: abort took %v — in-span poison checks not bounding latency", exec, np, elapsed)
			}
		}
	}
	prog = forcelang.MustParse(`Force ABTB of NP ident ME
Shared Integer A(4), S
Private Integer I, K, W
End Declarations
IF (ME .EQ. 0) THEN
  DO K = 1, 300000
    W = W + K
  End DO
  W = W / ME
End IF
Presched DO I = 1, 400000000000
  S = S + (A(1) + I)
End Presched DO
Join
`)
	for _, np := range []int{2, 8} {
		var logs []string
		start := time.Now()
		err := Run(prog, Config{NP: np, FuseLog: func(l string) { logs = append(logs, l) }})
		elapsed := time.Since(start)
		if !logsContain(logs, "line 11: DOALL span-checked 1 of 1 element references, block-evaluated") {
			t.Fatalf("the giant span is not block-evaluated: %q", logs)
		}
		if err == nil || !strings.Contains(err.Error(), "force runtime: line 9: integer division by zero") {
			t.Fatalf("block-evaluated np=%d: error %v", np, err)
		}
		if elapsed > 10*time.Second {
			t.Errorf("block-evaluated np=%d: abort took %v — no poison check between blocks", np, elapsed)
		}
	}
}
