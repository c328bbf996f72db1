package codegen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/sched"
)

const sample = `Force DEMO of NP ident ME
Shared Real A(8,8)
Shared Real S
Shared Integer N
Private Integer I, J
Private Real T
Async Real V
End Declarations
Barrier
N = 8
S = 0.0
End Barrier
Presched DO I = 1, N
  A(I, 1) = REAL(I)
End Presched DO
Selfsched DO I = 1, N also J = 1, N
  A(I, J) = REAL(I) * 10.0 + REAL(J)
End Selfsched DO
DO I = 1, 3
  T = T + A(I, I)
End DO
IF (ME .EQ. 0) THEN
  Produce V = T
End IF
IF (ME .EQ. MOD(1, NP)) THEN
  Consume V into T
End IF
Critical SUM
  S = S + T
End Critical
Pcase
Usect
  S = S + 1.0
Csect (N .GT. 4)
  S = S + 2.0
End Pcase
Void V
Print 'S =', S, NINT(S)
Call SCALE(A, S)
Barrier
End Barrier
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

func generate(t *testing.T, src string) string {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := Generate(prog, Options{})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return string(out)
}

func TestGeneratedSourceParses(t *testing.T) {
	src := generate(t, sample)
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, parser.AllErrors); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
}

func TestGeneratedStructure(t *testing.T) {
	src := generate(t, sample)
	// Struct fields are gofmt-aligned, so match on the field name at line
	// start plus the type fragment.
	fields := map[string]string{
		"A": "[]float64 // dims [8 8]",
		"S": "float64",
		"N": "int",
		"V": "asyncvar.V[float64]",
	}
	for name, typ := range fields {
		found := false
		for _, line := range strings.Split(src, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && f[0] == name && strings.Contains(line, typ) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("shared field %s %s missing:\n%s", name, typ, src)
		}
	}
	if !strings.Contains(src, "package main") || !strings.Contains(src, "type zzShared struct") {
		t.Errorf("missing boilerplate:\n%s", src)
	}
	// X and F are parameters of SCALE, not shared locals; they must NOT
	// appear in the shared struct.
	if strings.Contains(src, "SCALE_X") || strings.Contains(src, "SCALE_F") {
		t.Errorf("parameters leaked into shared struct:\n%s", src)
	}
	for _, want := range []string{
		"variants := core.VariantFlags(flag.CommandLine)",
		"f := core.New(*np, core.WithVariants(v))",
		"f.Run(func(p *core.Proc) {",
		"ME := p.ID()",
		"p.BarrierSection(func() {",
		"defer f.Close()",
		"zzR := sched.Range{Start: 1, Last: shr.N, Incr: 1}",
		"p.DoAllChunked(sched.PreschedBlock, zzR, func(zzLo, zzHi, zzStride int) {",
		"p.DoAllGranted(p.Selfsched(), 400, sched.Seq(sched.Pairs(zzR.Count(), zzN2)), func(zzLo, zzHi, zzStride int) {",
		"p.Critical(\"SUM\", func() {",
		"p.Pcase(",
		"core.CaseIf(func() bool { return (shr.N > 4) }, func() {",
		"shr.V.Produce(T)",
		"T = shr.V.Consume()",
		"shr.V.Void()",
		"forcert.Println(\"S =\", shr.S, forcert.Nint(shr.S))",
		"force_SCALE(p, shr, shr.A, &shr.S)",
		"func force_SCALE(p *core.Proc, shr *zzShared, X []float64, F *float64)",
		`X[forcert.Idx2(49, "X", K, K, 8, 8)]`, // checked 2D flattening in SCALE
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in generated source:\n%s", want, src)
		}
	}
}

func TestAskforGeneration(t *testing.T) {
	src := generate(t, `Force TREE of NP ident ME
Shared Integer COUNT
Private Integer WORK
End Declarations
Askfor WORK = 1
  Critical C
    COUNT = COUNT + 1
  End Critical
  IF (WORK .LT. 4) THEN
    Put WORK + 1
    Put WORK + 1
  End IF
End Askfor
Print 'nodes', COUNT
Join
`)
	for _, want := range []string{
		"p.Askfor([]any{1}, func(zzTask any, zzPut func(any)) {",
		"WORK = zzTask.(int)",
		"zzPut((WORK + 1))",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in generated source:\n%s", want, src)
		}
	}
}

func TestSelfschedKindOption(t *testing.T) {
	prog := forcelang.MustParse(`Force S of NP ident ME
Private Integer I
Shared Integer N
End Declarations
N = 8
Selfsched DO I = 1, N
  N = N
End Selfsched DO
Join
`)
	// The discipline is the force's, chosen when the binary starts; the
	// option is what its -selfsched flag defaults to.
	out, err := Generate(prog, Options{Selfsched: sched.Chunk})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`core.VariantFlags(flag.CommandLine, "-selfsched", "selfsched-chunk")`,
		"p.DoAllGranted(p.Selfsched(), ",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestChunkOption: the selfsched-chunk discipline given as an option is
// the -selfsched default and nothing else — the only chunk setting a
// generated program has.
func TestChunkOption(t *testing.T) {
	prog := forcelang.MustParse(`Force S of NP ident ME
End Declarations
Join
`)
	out, err := Generate(prog, Options{Selfsched: sched.Chunk})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `core.VariantFlags(flag.CommandLine, "-selfsched", "selfsched-chunk")`) {
		t.Errorf("the Chunk discipline is not the -selfsched default:\n%s", out)
	}
	// The options are flag defaults and nothing else: the zero value
	// bakes none, and the rest of the file is the same either way.
	plain, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(plain), "core.VariantFlags(flag.CommandLine)\n") {
		t.Errorf("zero options must bake no default:\n%s", plain)
	}
	if strings.Replace(string(out), `, "-selfsched", "selfsched-chunk"`, "", 1) != string(plain) {
		t.Errorf("an option changed more than a flag default:\n%s\n--- zero options ---\n%s", out, plain)
	}
}

func TestMixedArithmeticCoercion(t *testing.T) {
	src := generate(t, `Force M of NP ident ME
Shared Real X
Private Integer I
End Declarations
I = 3
X = I / 2 + 1.5
Join
`)
	// I / 2 is integer division; adding 1.5 promotes the result.
	if !strings.Contains(src, "(float64(forcert.Div(6, I, 2)) + 1.5)") {
		t.Errorf("integer division not preserved before promotion:\n%s", src)
	}
}

func TestNegativeStepLoop(t *testing.T) {
	src := generate(t, `Force M of NP ident ME
Private Integer I
Shared Integer S
End Declarations
Selfsched DO I = 10, 2, -2
  Critical L
    S = S + I
  End Critical
End Selfsched DO
Join
`)
	if !strings.Contains(src, "Incr: forcert.Step(5, (-2))") {
		t.Errorf("negative stride lost (or unchecked):\n%s", src)
	}
}

func TestElementArgument(t *testing.T) {
	src := generate(t, `Force M of NP ident ME
Shared Real A(5)
End Declarations
Call BUMP(A(3))
Join
Forcesub BUMP(X)
Shared Real X
End Declarations
X = X + 1.0
Endsub
`)
	if !strings.Contains(src, `force_BUMP(p, shr, &shr.A[forcert.Idx1(4, "A", 3, len(shr.A))])`) {
		t.Errorf("element argument not passed by reference:\n%s", src)
	}
	if !strings.Contains(src, "(*X) = ((*X) + 1.0)") {
		t.Errorf("by-reference parameter not dereferenced:\n%s", src)
	}
}

func TestPackageOption(t *testing.T) {
	prog := forcelang.MustParse("Force P of NP ident ME\nEnd Declarations\nJoin\n")
	out, err := Generate(prog, Options{Package: "demo", DefaultNP: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "package demo") {
		t.Error("package option ignored")
	}
	if !strings.Contains(string(out), `flag.Int("np", 9,`) {
		t.Error("DefaultNP option ignored")
	}
}

func TestSubSharedLocalQualified(t *testing.T) {
	src := generate(t, `Force M of NP ident ME
End Declarations
Call T
Join
Forcesub T()
Shared Integer COUNT
End Declarations
Barrier
COUNT = COUNT + 1
End Barrier
Endsub
`)
	if !strings.Contains(src, "T_COUNT int") {
		t.Errorf("sub shared local not a qualified field:\n%s", src)
	}
	if !strings.Contains(src, "forcert.Add(forcert.Word(&shr.T_COUNT), 1)") {
		t.Errorf("sub shared local access not qualified:\n%s", src)
	}
}

func TestPrivateArrayLocal(t *testing.T) {
	src := generate(t, `Force M of NP ident ME
Private Real W(16)
End Declarations
W(1) = 2.0
Join
`)
	if !strings.Contains(src, "W := make([]float64, 16)") {
		t.Errorf("private array not allocated per process:\n%s", src)
	}
}

func TestWhileDoGeneratesFor(t *testing.T) {
	src := generate(t, `Force W of NP ident ME
Shared Logical DONE
Private Integer I
End Declarations
DO WHILE (.NOT. DONE)
  I = I + 1
  Barrier
    DONE = .TRUE.
  End Barrier
End DO
Join
`)
	if !strings.Contains(src, "for !shr.DONE {") {
		t.Errorf("DO WHILE not generated as a for loop:\n%s", src)
	}
}

func TestAsyncArrayGeneration(t *testing.T) {
	src := generate(t, `Force AA of NP ident ME
Async Real PIPE(8)
Private Real X
End Declarations
Produce PIPE(ME + 1) = 1.5
Consume PIPE(ME + 1) into X
Void PIPE(1)
Join
`)
	for _, want := range []string{
		"PIPE *asyncvar.Array[float64] // 8 full/empty cells",
		"shr.PIPE = core.NewAsyncArray[float64](f, 8)",
		`shr.PIPE.At(forcert.AsyncIdx(5, "PIPE", (ME + 1), 8)).Produce(1.5)`,
		`X = shr.PIPE.At(forcert.AsyncIdx(6, "PIPE", (ME + 1), 8)).Consume()`,
		`shr.PIPE.At(forcert.AsyncIdx(7, "PIPE", 1, 8)).Void()`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
}
