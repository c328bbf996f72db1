package codegen

// Golden tests for span emission: each case is a small Force program
// whose emitted process body (everything inside f.Run) and plan
// narration are pinned in testdata/<name>.golden.  Regenerate with
//
//	go test ./internal/codegen -run TestSpanGoldens -update
//
// and review the diff: these files are the reviewable form of "what does
// the native tier run for this DOALL".

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forcelang"
)

var update = flag.Bool("update", false, "rewrite the span-emission golden files")

var spanCases = []struct{ name, src string }{
	{"one-index-cyclic", `Force G of NP ident ME
Shared Integer OWNER(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  OWNER(I) = ME
End Presched DO
Join
`},
	{"block-leaves-cyclic-index", `Force G of NP ident ME
Shared Real A(64)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Print I
Join
`},
	// A block-dealt DOALL whose plan span-checks its references: one
	// end-point test per span, then unit-stride views of each block.
	{"block-stream", `Force G of NP ident ME
Shared Real A(4096), B(4096)
Private Integer I
End Declarations
Presched DO I = 1, 4096
  A(I) = A(I) * 0.999 + B(I)
End Presched DO
Join
`},
	{"block-stencil", `Force G of NP ident ME
Shared Real T(1026), U(1026), A(2048)
Shared Integer K
Private Integer I
End Declarations
Presched DO I = 2, 1025
  U(I) = (T(I - 1) + T(I) + T(I + 1)) / 3.0 + A(I + K)
End Presched DO
Join
`},
	{"block-reads-index", `Force G of NP ident ME
Shared Real B(1000)
Private Integer I
End Declarations
Presched DO I = 1, 1000
  B(I) = REAL(MOD(I, 7))
End Presched DO
Join
`},
	{"two-index-block", `Force G of NP ident ME
Shared Real A(8,8)
Private Integer I, J
End Declarations
Presched DO I = 1, 8 also J = 8, 1, -1
  A(I, J) = REAL(I * J)
End Presched DO
Join
`},
	{"negative-step-selfsched", `Force G of NP ident ME
Shared Real A(10)
Private Integer I
End Declarations
Selfsched DO I = 10, 2, -2
  A(I) = 1.0
End Selfsched DO
Join
`},
	{"zero-trip", `Force G of NP ident ME
Shared Real A(4)
Private Integer I
End Declarations
I = 7
Presched DO I = 5, 1
  A(I) = 1.0
End Presched DO
Print I
Join
`},
	{"folded-accumulators", `Force G of NP ident ME
Shared Integer S
Shared Real HI
Private Integer I
End Declarations
Presched DO I = 1, 100
  S = S + I
  HI = MAX(HI, REAL(I) * 0.5)
End Presched DO
Selfsched DO I = 1, 100
  S = S - 2
End Selfsched DO
Join
`},
	{"seqdo-in-planned-body", `Force G of NP ident ME
Shared Real A(40)
Private Integer I, J
Private Real T
End Declarations
Presched DO I = 1, 40
  T = 0.0
  DO J = 1, 5
    T = T + REAL(I * J)
  End DO
  A(I) = T
End Presched DO
Join
`},
	{"unplanned-body", `Force G of NP ident ME
Shared Integer S, T
Private Integer I
End Declarations
Presched DO I = 1, 10
  Critical L
    T = S
    S = S + I
  End Critical
End Presched DO
Join
`},
	{"fused-pair", `Force G of NP ident ME
Shared Real A(32), B(32)
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 32
  B(I) = A(I) * 2.0
End Presched DO
Join
`},
	{"fused-reduction-tail", `Force G of NP ident ME
Shared Real A(32)
Shared Real TOP
Shared Integer COUNT
Private Integer I, MINE
Private Real BEST
End Declarations
Selfsched DO I = 1, 32
  A(I) = REAL(I)
  MINE = MINE + 1
  BEST = MAX(BEST, REAL(I))
End Selfsched DO
GMAX TOP = BEST
Presched DO I = 1, 32
  A(I) = A(I) + 1.0
End Presched DO
GSUM COUNT = MINE
Join
`},
	// A Barrier statement rides the closing collective of the construct
	// before it: a DOALL's exit, a fused join folding into a private and
	// into a shared target, a standalone reduction; an empty one is the
	// exit itself, and the Barrier behind it stays an episode of its own.
	{"ridden-barriers", `Force G of NP ident ME
Shared Real A(32)
Shared Integer COUNT, SEEN
Shared Logical ANY
Private Integer I, MINE, TOT
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Barrier
  SEEN = 0
End Barrier
Selfsched DO I = 1, 32
  MINE = MINE + 1
End Selfsched DO
GSUM TOT = MINE
Barrier
  SEEN = TOT
End Barrier
Selfsched DO I = 1, 32
  MINE = MINE + 1
End Selfsched DO
GSUM COUNT = MINE
Barrier
  SEEN = SEEN + COUNT
End Barrier
GOR ANY = MINE .GT. 3
Barrier
  Print SEEN, ANY
End Barrier
GSUM TOT = 1
Barrier
  SEEN = TOT
End Barrier
Presched DO I = 1, 32
  A(I) = 0.0
End Presched DO
Barrier
End Barrier
Barrier
End Barrier
Join
`},
}

// processBody cuts the emitted source down to the statements inside
// f.Run(func(p *core.Proc) { ... }).
func processBody(t *testing.T, src string) string {
	t.Helper()
	const open = "f.Run(func(p *core.Proc) {\n"
	i := strings.Index(src, open)
	j := strings.Index(src, "\n\t})\n}\n")
	if i < 0 || j < i {
		t.Fatalf("no process body in:\n%s", src)
	}
	return src[i+len(open) : j+1]
}

func TestSpanGoldens(t *testing.T) {
	for _, tc := range spanCases {
		t.Run(tc.name, func(t *testing.T) {
			src, decisions, err := Lower(forcelang.MustParse(tc.src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, d := range decisions {
				got.WriteString("// plan: " + d + "\n")
			}
			got.WriteString(processBody(t, string(src)))
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("emission differs from %s (rerun with -update and review):\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
			}
		})
	}
}

// TestNoPerIterationEmission: one emission path — no DOALL, planned or
// not, is ever emitted against the per-index entry points.
func TestNoPerIterationEmission(t *testing.T) {
	perIndex := regexp.MustCompile(`p\.(PreschedDo2?|SelfschedDo2?|DoAll2?)\(`)
	for _, tc := range spanCases {
		src, err := Generate(forcelang.MustParse(tc.src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m := perIndex.Find(src); m != nil {
			t.Errorf("%s: per-iteration entry point %q emitted", tc.name, m)
		}
	}
}

// TestCheckHelpersInline builds one generated program with -gcflags=-m
// (for the program and for internal/forcert) and requires the compiler
// to report every run-time check of the support package inlinable and
// inlined into the program: a check that does not inline across the
// package boundary is a call per array reference in every span loop,
// which is most of what the native tier used to cost.
func TestCheckHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	src, err := Generate(forcelang.MustParse(`Force INL of NP ident ME
Shared Real A(8,8), V(8)
Async Real Q(4)
Private Integer I, J
End Declarations
Presched DO I = 1, 8, 1 also J = 1, 8
  A(I, J) = SQRT(V(I)) + REAL(MOD(I, J) / J)
End Presched DO
Produce Q(ME + 1) = V(1)
Join
`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := buildInModule(t, src, "-gcflags=-m", "-gcflags=repro/internal/forcert=-m")
	// The generic checks are instantiated (and judged) where the program
	// uses them, as forcert.Idx1[go.shape.int]; Sqrt in its own package.
	for _, fn := range []string{"Idx1", "Idx2", "Div", "ModInt", "Sqrt", "Step", "AsyncIdx"} {
		can := regexp.MustCompile(`can inline (forcert\.)?` + fn + `(\[go\.shape\.int\])?( |\n)`)
		if !can.MatchString(out) {
			t.Errorf("forcert.%s is not inlinable; compiler said:\n%s", fn, grepLines(out, fn))
		}
		if !strings.Contains(out, "main.go") || !regexp.MustCompile(`main\.go:\d+:\d+: inlining call to forcert\.`+fn+`\b`).MatchString(out) {
			t.Errorf("forcert.%s is not inlined into the generated program; compiler said:\n%s", fn, grepLines(out, fn))
		}
	}
}

// buildInModule builds one generated program with the extra go build
// flags and returns what the compiler said.  The generated code imports
// repro/internal/..., so it is built in a dot-directory inside the
// module, as the aot tier does.
func buildInModule(t *testing.T, src []byte, flags ...string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, ".force-build-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	args := append(append([]string{"build"}, flags...), "-o", filepath.Join(dir, "bin"), "./"+filepath.Base(dir))
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	raw, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, raw)
	}
	return string(raw)
}

// TestSpanLoopBoundsCheckFree builds the block-stream case with the
// compiler's bounds-check report and requires none inside the span form's
// inner loop: every view is re-sliced to the block's length, so Go proves
// each index in range and the loop is the one a hand-written Go loop over
// two slices compiles to.
func TestSpanLoopBoundsCheckFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	var src []byte
	for _, tc := range spanCases {
		if tc.name == "block-stream" {
			var err error
			if src, err = Generate(forcelang.MustParse(tc.src), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The lines of the inner loop's body: from its header to its brace.
	lines := strings.Split(string(src), "\n")
	first, last := 0, 0
	for i, l := range lines {
		if strings.TrimSpace(l) == "for zzK := 0; zzK < zzM; zzK++ {" {
			first = i + 2 // 1-based, after the header
			indent := l[:len(l)-len(strings.TrimLeft(l, "\t"))]
			for last = i + 1; lines[last] != indent+"}"; last++ {
			}
			break
		}
	}
	if first == 0 || last < first {
		t.Fatalf("no span-form inner loop in:\n%s", src)
	}
	out := buildInModule(t, src, "-gcflags=-d=ssa/check_bce/debug=1")
	found := regexp.MustCompile(`main\.go:(\d+):\d+: Found (IsInBounds|IsSliceInBounds)`)
	for _, m := range found.FindAllStringSubmatch(out, -1) {
		if n, _ := strconv.Atoi(m[1]); first <= n && n <= last {
			t.Errorf("bounds check at main.go:%s, inside the inner loop (lines %d-%d):\n%s", m[1], first, last, strings.Join(lines[first-1:last], "\n"))
		}
	}
}

func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
