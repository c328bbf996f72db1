package interp

// span_test.go — the span check from the inside: the interval arithmetic
// of the end-point test, the narration, and the two properties the corpus
// cannot see — the checked body is compiled at most once, and only when a
// span needs it; re-entering a span-checked construct allocates nothing.
// What a span-checked body computes, and what it raises, is the corpus'
// business (TestChunkEquivalence, TestFusionFaultParity,
// TestRuntimeErrorsBothEngines).

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/reduce"
)

// TestNarrow pins the end-point interval: the indices at which c·i + rest
// is a subscript in 1..ext, judged over the integers.
func TestNarrow(t *testing.T) {
	const big = 1 << 62
	for _, tc := range []struct {
		c, rest, ext int64
		lo, hi       int64 // lo > hi: empty
	}{
		{1, 0, 64, 1, 64},                        // A(I)
		{1, 1, 64, 0, 63},                        // A(I + 1)
		{-1, 65, 64, 1, 64},                      // A(N + 1 - I)
		{2, -1, 130, 1, 65},                      // A(2*I - 1): 131 is out
		{-2, 129, 130, 0, 64},                    // A(N + N - 2*I + 1): -1 <= 2i <= 128
		{3, 0, 10, 1, 3},                         // floor and ceiling both round inward
		{-3, 0, 10, -3, -1},                      //
		{0, 7, 10, math.MinInt64, math.MaxInt64}, // uniform and in range: no constraint
		{0, 11, 10, 1, 0},                        // uniform and out: no index passes
		{big, 1, 32, 0, 0},                       // the wrapping product: only I = 0
		{math.MinInt64, 1, 32, 0, 0},             //
		{1, big, 32, 1, 0},                       // a rest the test itself could wrap on
		{1, math.MinInt64, 32, 1, 0},             //
		{-1, 1 - big, 32, 1 - big - 32, -big},    // the largest rest still judged
		{-1, big - 1, 32, big - 33, big - 2},     // at the other end
		{-1, big, 32, 1, 0},                      //
		{-1, -big, 32, 1, 0},                     //
		{-1, math.MinInt64, 32, 1, 0},            //
		{-1, math.MaxInt64, 32, 1, 0},            //
		{1, 1 - big, 32, big, big + 31},          // c = 1 likewise
		{1, big - 1, 32, 2 - big, 33 - big},      //
	} {
		kc := kctx{ok: forcert.AllIndices()}
		kc.ok.Narrow(tc.c, tc.rest, tc.ext)
		if tc.lo > tc.hi {
			if kc.ok.Lo <= kc.ok.Hi {
				t.Errorf("narrow(%d, %d, %d) = [%d, %d], want empty", tc.c, tc.rest, tc.ext, kc.ok.Lo, kc.ok.Hi)
			}
			continue
		}
		if kc.ok.Lo != tc.lo || kc.ok.Hi != tc.hi {
			t.Errorf("narrow(%d, %d, %d) = [%d, %d], want [%d, %d]", tc.c, tc.rest, tc.ext, kc.ok.Lo, kc.ok.Hi, tc.lo, tc.hi)
		}
		// The interval is exact: its ends are in range, their neighbours
		// are not (where the arithmetic below cannot wrap).
		if tc.c != 0 && tc.c > -1<<40 && tc.c < 1<<40 && tc.rest > -1<<40 && tc.rest < 1<<40 {
			in := func(i int64) bool { s := tc.c*i + tc.rest; return 1 <= s && s <= tc.ext }
			if !in(tc.lo) || !in(tc.hi) || in(tc.lo-1) || in(tc.hi+1) {
				t.Errorf("narrow(%d, %d, %d) = [%d, %d] is not the exact interval", tc.c, tc.rest, tc.ext, tc.lo, tc.hi)
			}
		}
	}
	// Constraints intersect.
	kc := kctx{ok: forcert.AllIndices()}
	kc.ok.Narrow(1, -1, 64) // A(I - 1): 2..65
	kc.ok.Narrow(1, 1, 64)  // A(I + 1): 0..63
	if kc.ok.Lo != 2 || kc.ok.Hi != 63 || !kc.ok.Holds(2, 63) || !kc.ok.Holds(63, 2) || kc.ok.Holds(1, 63) || kc.ok.Holds(2, 64) {
		t.Errorf("A(I - 1) with A(I + 1) over 64: [%d, %d]", kc.ok.Lo, kc.ok.Hi)
	}
}

// TestSpanCheckNarration pins the span-check line this tier narrates for
// the plan: how many of a planned body's shared-array element references
// are checked per span, and whether the body is evaluated a block at a
// time or, when the planner declined that, per iteration and for which
// first reason.
func TestSpanCheckNarration(t *testing.T) {
	byName := map[string]string{}
	for _, p := range corpus.Chunk {
		byName[p.Name] = p.Src
	}
	for _, tc := range []struct {
		prog string
		cfg  Config
		want []string
	}{
		{"span-affine-forms", Config{}, []string{
			"line 11: DOALL span-checked 2 of 2 element references, block-evaluated",
			"line 21: DOALL span-checked 5 of 5 element references, block-evaluated",
			"line 24: DOALL span-checked 4 of 4 element references, block-evaluated"}},
		{"span-2d-uniform-subscript", Config{NoFuse: true}, []string{
			"line 9: DOALL span-checked 0 of 1 element references, per iteration (two-index space)",
			"line 12: DOALL span-checked 1 of 1 element references, block-evaluated",
			"line 21: DOALL span-checked 4 of 4 element references, block-evaluated"}},
		{"span-unproven-and-wrapping", Config{}, []string{
			"line 9: DOALL span-checked 1 of 2 element references, per iteration (writes A, not proven disjoint)",
			"line 18: DOALL span-checked 1 of 2 element references, per iteration (writes B, not proven disjoint)", // the wrapping coefficient
			"line 35: DOALL span-checked 0 of 1 element references, per iteration (parameter reference)",
			"line 38: DOALL span-checked 0 of 2 element references, per iteration (parameter reference)"}},
		{"block-span-lengths", Config{}, []string{
			"line 15: DOALL span-checked 3 of 3 element references, block-evaluated", // the empty loop too
			"line 33: DOALL grant=134", // sized for a block body, and shorter than a block
			"line 33: DOALL span-checked 7 of 7 element references, block-evaluated"}},
		{"block-recurrences", Config{}, []string{
			"line 37: DOALL span-checked 6 of 6 element references, block-evaluated",
			"line 47: DOALL span-checked 3 of 3 element references, block-evaluated"}},
		{"block-statement-order-and-declined", Config{}, []string{
			"line 10: DOALL span-checked 12 of 12 element references, block-evaluated",
			"line 17: DOALL span-checked 3 of 3 element references, per iteration (IF)",
			"line 22: DOALL span-checked 3 of 3 element references, per iteration (integer MOD)",
			"line 26: DOALL span-checked 2 of 2 element references, per iteration (reads private X outside its recurrence)",
			"line 30: DOALL span-checked 3 of 3 element references, block-evaluated",
			"line 34: DOALL span-checked 4 of 4 element references, per iteration (SQRT)"}},
		{"block-temporaries", Config{}, []string{
			"line 15: DOALL span-checked 5 of 5 element references, block-evaluated",
			"line 23: DOALL span-checked 3 of 3 element references, per iteration (writes private D, not one recurrence)",
			"line 29: DOALL span-checked 2 of 2 element references, block-evaluated"}},
		{"block-temporary-left", Config{}, []string{
			"line 14: DOALL span-checked 2 of 2 element references, block-evaluated",
			"line 18: DOALL span-checked 2 of 2 element references, block-evaluated",
			"line 22: DOALL span-checked 9 of 9 element references, block-evaluated"}},
		{"block-conditional-extrema", Config{}, []string{
			"line 28: DOALL span-checked 6 of 6 element references, block-evaluated",
			"line 42: DOALL span-checked 4 of 4 element references, block-evaluated",
			"line 52: DOALL span-checked 2 of 2 element references, per iteration (IF)",
			"line 59: DOALL span-checked 2 of 2 element references, per iteration (IF)"}},
	} {
		logs := fuseLogs(t, byName[tc.prog], tc.cfg)
		for _, want := range tc.want {
			if !logsContain(logs, want) {
				t.Errorf("%s: logs %q lack %q", tc.prog, logs, want)
			}
		}
	}
	// The reasons the corpus has no program for, first reason first.
	for _, tc := range []struct{ decl, body, want string }{
		{"Integer A(64), B(64)", "A(I) = A(I - 1) + B(I)", "writes A, not proven disjoint"},
		{"Integer A(64), B(64)", "A(I) = B(I) / (K + 2)", "integer /"}, // a divisor that is not a nonzero literal
		{"Integer A(64), B(64)", "DO K = 1, 2\nA(I) = B(I) + K\nEnd DO", "sequential DO"},
		{"Integer A(64), B(64)", "A(I) = B(MOD(I, 64) + 1)", "checks B per iteration"},
		{"Integer A(64), B(64), S", "S = I\nA(I) = B(I)", "writes S, not one folded accumulator"},
		{"Real A(64), B(64), S", "S = MAX(S, A(I))\nS = MAX(S, B(I))", "writes S, not one folded accumulator"},
		{"Real A(64), B(64)", "X = X + A(I)\nX = X + B(I)", "writes private X, not one recurrence"},
		{"Real A(64)\nShared Logical L(64)", "L(I) = A(I) .GT. 0.0", "LOGICAL L"},
	} {
		src := fmt.Sprintf("Force WHY of NP ident ME\nShared %s\nPrivate Integer I, K\nPrivate Real X\nEnd Declarations\n"+
			"Presched DO I = 2, 64\n%s\nEnd Presched DO\nJoin\n", tc.decl, tc.body)
		if logs := fuseLogs(t, src, Config{NP: 1}); !logsContain(logs, "element references, per iteration ("+tc.want+")") {
			t.Errorf("%q: logs %q lack the reason %q", tc.body, logs, tc.want)
		}
	}
	// The planner's line, not the compiler's: with the planner off nothing
	// is span-checked and nothing says so.
	for _, l := range fuseLogs(t, byName["span-affine-forms"], Config{Exec: ExecCompiled}) {
		t.Errorf("ExecCompiled narrates %q", l)
	}
}

// spanFixture is the first DOALL of a program compiled the way chunkParDo
// compiles it, with what a span of it runs against.
type spanFixture struct {
	prog *forcelang.Program
	c    *compiler
	loop *forcelang.ParDo
	cp   *chunkPlan
	body []stmtFn
	pr   *cproc
	fr   *frame
}

func newSpanFixture(t *testing.T, src string) *spanFixture {
	t.Helper()
	fx := &spanFixture{prog: forcelang.MustParse(src)}
	res, err := resolveProgram(fx.prog)
	if err != nil {
		t.Fatal(err)
	}
	in := newCInstance(fx.prog, Config{NP: 1, Stdout: io.Discard}, res, nil)
	fx.c = newCompiler(in)
	checked := 0
	for i, st := range fx.prog.Body {
		if pd, ok := st.(*forcelang.ParDo); ok {
			nd, _ := fx.c.tg.Next(fx.prog.Body, i)
			fx.loop, fx.cp, checked = pd, &chunkPlan{Plan: nd.Loop.Plan}, len(nd.Loop.SpanChecked)
			break
		}
	}
	if fx.cp == nil || fx.cp.Plan == nil {
		t.Fatal("the fixture's DOALL has no plan")
	}
	fx.body = fx.c.spanBody(fx.loop, fx.cp)
	if fx.cp.sites != checked {
		t.Fatalf("the compiler registered %d span-checked sites, the planner counted %d", fx.cp.sites, checked)
	}
	fx.pr, fx.fr = &cproc{in: in}, fx.c.units[""].newFrame(0)
	return fx
}

const spanFixtureSrc = `Force FIX of NP ident ME
Shared Integer A(64), B(64), N
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(I) = A(I) + B(N + 1 - I) + B(I + 1)
End Presched DO
Join
`

// TestCheckedBodyCompiledOnce: the plan-less body does not exist until a
// span asks for it, and however many processes ask at once — every one of
// them failing its first span together — one compilation serves them all.
func TestCheckedBodyCompiledOnce(t *testing.T) {
	fx := newSpanFixture(t, spanFixtureSrc)
	c, loop, cp := fx.c, fx.loop, fx.cp
	if cp.sites != 4 {
		t.Fatalf("fixture: %d references span-checked, want 4", cp.sites)
	}
	if cp.checked != nil {
		t.Fatal("the checked body was compiled up front")
	}
	const procs = 8
	got := make([][]stmtFn, procs)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			got[g] = cp.checkedBody(c, loop)
		}(g)
	}
	start.Done()
	done.Wait()
	for g := range got {
		// The index store and the one assignment; the same closures for all.
		if len(got[g]) != 2 || &got[g][0] != &got[0][0] {
			t.Fatalf("process %d got its own checked body (%d statements)", g, len(got[g]))
		}
	}
	if c.plan != nil {
		t.Error("the lazy compilation touched the shared compiler")
	}
}

// TestSpanEnterAllocatesNothing: the per-process rests and the block
// buffers live in grow-only slices of the chunk context, so entering a
// span-checked construct and sizing its blocks a second time — a sweep
// loop's steady state — allocates nothing; the interval it leaves is the
// references' own, and the buffers are as wide as the span, not the block.
func TestSpanEnterAllocatesNothing(t *testing.T) {
	fx := newSpanFixture(t, spanFixtureSrc)
	cp, pr, fr := fx.cp, fx.pr, fx.fr
	n, _ := fx.prog.Scope.Lookup("N")
	pr.in.scalar(n).storeInt(64)
	enter := func() {
		pr.k.enter(cp, nil, pr, fr)
		pr.k.blocks(cp, 16, 1)
	}
	enter()
	// A(I): 1..64, B(N + 1 - I): 1..64, B(I + 1): 0..63.
	if pr.k.ok.Lo != 1 || pr.k.ok.Hi != 63 {
		t.Errorf("interval [%d, %d], want [1, 63]", pr.k.ok.Lo, pr.k.ok.Hi)
	}
	// The 0-based word offset of each reference's element at I = 0, in
	// compilation order: the target, then the right-hand side.
	if got, want := fmt.Sprint(pr.k.aff), "[-1 -1 64 0]"; got != want {
		t.Errorf("rests %s, want %s", got, want)
	}
	// (A(I) + B(N + 1 - I)) + B(I + 1): the inner sum reads both elements
	// in place into the statement's buffer, and the outer one its right
	// element — one INTEGER buffer, no REAL one, 16 wide for a 16-index span.
	if cp.nI != 1 || cp.nR != 0 || cap(pr.k.b.bufI) != 16 || pr.k.b.bufR != nil {
		t.Errorf("%d INTEGER and %d REAL buffers in %d and %d slots, want 1 and 0 in 16 and none",
			cp.nI, cp.nR, cap(pr.k.b.bufI), cap(pr.k.b.bufR))
	}
	if avg := testing.AllocsPerRun(100, enter); avg != 0 {
		t.Errorf("re-entering the construct allocates %.1f times", avg)
	}
}

// TestEverySpanTakesCheckedBody: a reference guarded out of every
// iteration fails every span's end-point test, so at np = 8 every process
// wants the checked body at its first span, sweep after sweep (under
// -race this is the concurrent first use).  Output must not notice.
func TestEverySpanTakesCheckedBody(t *testing.T) {
	prog := forcelang.MustParse(`Force EVERY of NP ident ME
Shared Integer A(256), B(256), T
Private Integer I, S
End Declarations
DO S = 1, 6
  Presched DO I = 1, 256
    A(I) = A(I) + S
    IF (I .GT. 1000) THEN
      A(I) = B(I + 1000)
    End IF
  End Presched DO
End DO
Barrier
  T = 0
  DO I = 1, 256
    T = T + A(I) * I
  End DO
  Print 'every', T
End Barrier
Join
`)
	for _, np := range []int{1, 2, 8} {
		var want, got strings.Builder
		if err := Run(prog, Config{NP: np, Stdout: &want, Exec: ExecCompiled}); err != nil {
			t.Fatal(err)
		}
		if err := Run(prog, Config{NP: np, Stdout: &got}); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || !strings.HasPrefix(got.String(), "every 690816") {
			t.Errorf("np=%d: chunked %q, compiled %q", np, got.String(), want.String())
		}
	}
}

// TestDeclinedBodyKeepsIterationOrder: a body that reads an element
// another iteration writes is order-dependent inside one process — the
// planner must decline it, or a block would read all of A(I - 1) before
// storing any A(I).  At np = 1 the prefix sum is exact; with a step of 2
// the same two forms never meet, so it is exact at every np and tier.
func TestDeclinedBodyKeepsIterationOrder(t *testing.T) {
	const src = `Force PREFIX of NP ident ME
Shared Integer A(600), B(600), T
Private Integer I
End Declarations
Presched DO I = 1, 600
  A(I) = 1
  B(I) = MOD(I * 7, 13)
End Presched DO
Presched DO I = 2, 600%s
  A(I) = A(I - 1) + B(I)
End Presched DO
Barrier
  T = 0
  DO I = 1, 600
    T = T + A(I) * MOD(I, 5)
  End DO
  Print 'prefix', T, A(600)
End Barrier
Join
`
	prog := forcelang.MustParse(fmt.Sprintf(src, ""))
	var want, got strings.Builder
	if err := Run(prog, Config{NP: 1, Stdout: &want, Exec: ExecTree}); err != nil {
		t.Fatal(err)
	}
	if err := Run(prog, Config{NP: 1, Stdout: &got}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || !strings.HasPrefix(got.String(), "prefix 2155197 3590") {
		t.Errorf("chunked %q, tree %q", got.String(), want.String())
	}
	tierEquivalence(t, corpus.Program{Name: "prefix-step-2", Src: fmt.Sprintf(src, ", 2")}, reduce.PrivateSlots)
}

// TestFailingSpanKeepsPrecedingStores: a span whose last index is out of
// range runs the checked body, not the block form, so when the reference
// raises, every store of the iterations before it has happened — the
// message and the array are ExecCompiled's.
func TestFailingSpanKeepsPrecedingStores(t *testing.T) {
	prog := forcelang.MustParse(`Force KEEP of NP ident ME
Shared Integer A(64), B(64)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(I) = A(I) + 10 * I + B(I + 1)
End Presched DO
Join
`)
	a, _ := prog.Scope.Lookup("A")
	run := func(exec ExecMode) (string, string) {
		cfg := Config{NP: 1, Exec: exec, Stdout: io.Discard}
		res, err := resolveProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		f := newForce(cfg)
		defer f.Close()
		in := newCInstance(prog, cfg, res, f)
		cp, err := compileProgram(in)
		if err != nil {
			t.Fatal(err)
		}
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = recoverRunErr(r)
				}
			}()
			f.Run(func(p *core.Proc) {
				runBody(cp.main.body, &cproc{in: in, p: p}, cp.main.getFrame(0))
			})
			return nil
		}()
		words := make([]uint64, 64)
		for i := range words {
			words[i] = in.array(a).data[i].Load()
		}
		return fmt.Sprint(err), fmt.Sprint(words)
	}
	wantErr, wantA := run(ExecCompiled)
	gotErr, gotA := run(ExecChunked)
	if !strings.Contains(wantErr, "line 6: subscript 1 of B out of range: 65 not in [1,64]") || !strings.HasSuffix(wantA, " 620 630 0]") {
		t.Fatalf("ExecCompiled: %s, A = %s", wantErr, wantA)
	}
	if gotErr != wantErr || gotA != wantA {
		t.Errorf("ExecChunked: %s, A = %s\nExecCompiled: %s, A = %s", gotErr, gotA, wantErr, wantA)
	}
}

// BenchmarkSpanBody times one iteration of a planned DOALL body at np = 1:
// forcemark's three doall-stream bodies, which are element-wise and run
// block-evaluated, and stream's with a neighbour read of the array it
// writes, which the planner declines and which runs per iteration.  The two
// ns-per-unit constants of planTarget are these numbers over the bodies'
// static costs (9, 14, 11 and 10 units).
func BenchmarkSpanBody(b *testing.B) {
	const n, sweeps = 16384, 32
	for _, bc := range []struct{ name, decl, sched, body string }{
		{"stream", "Real A(16386), B(16386)", "Presched", "A(I) = A(I) * 0.999 + B(I)"},
		{"stencil", "Real A(16386), B(16386)", "Presched", "B(I) = (A(I - 1) + A(I) + A(I + 1)) / 3.0"},
		{"dotsum", "Integer A(16386), B(16386)", "Selfsched", "MINE = MINE + A(I) * B(I) + S"},
		{"dotsum-init", "Integer A(16386), B(16386)", "Presched", "A(I) = MOD(I * 7, 11) - 5"},
		{"declined", "Real A(16386), B(16386)", "Presched", "A(I) = A(I - 1) * 0.999 + B(I)"},
	} {
		prog := forcelang.MustParse(fmt.Sprintf(`Force BODY of NP ident ME
Shared %s
Private Integer I, S, MINE
End Declarations
DO S = 1, %d
  %s DO I = 2, %d
    %s
  End %s DO
End DO
Join
`, bc.decl, sweeps, bc.sched, n+1, bc.body, bc.sched))
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Run(prog, Config{NP: 1, Stdout: io.Discard}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweeps*n), "ns/iteration")
		})
	}
}
