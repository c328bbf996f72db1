package codegen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/reduce"
)

const reduceSrc = `
Force G of NP ident ME
Shared Real TOTAL
Shared Integer COUNT
Shared Logical OK
Private Real X
Private Logical B
End Declarations
X = REAL(ME)
GSUM TOTAL = X
GPROD COUNT = ME + 1
GMAX TOTAL = X
GMIN X = TOTAL
GAND OK = B
GOR B = OK
Join
`

func TestGenerateReduceStatements(t *testing.T) {
	prog := forcelang.MustParse(reduceSrc)
	out, err := Generate(prog, Options{Reduce: reduce.Critical})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	// Shared targets store once through the *To form; private targets
	// assign the returned value per process.
	for _, want := range []string{
		"core.WithReduce(reduce.Critical)",
		"core.GsumTo(p, X, &shr.TOTAL)",
		"core.GprodTo(p, (ME + 1), &shr.COUNT)",
		"core.GmaxTo(p, X, &shr.TOTAL)",
		"X = core.Gmin(p, shr.TOTAL)",
		"core.GandTo(p, B, &shr.OK)",
		"B = core.Gor(p, shr.OK)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", out, parser.AllErrors); err != nil {
		t.Fatalf("generated Go does not parse: %v", err)
	}
}

func TestGenerateReduceCoercesToTargetType(t *testing.T) {
	src := `
Force M of NP ident ME
Shared Real T
End Declarations
GSUM T = ME
Join
`
	out, err := Generate(forcelang.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// INTEGER operand, REAL target: the combination happens in the
	// target's type, so the operand is converted before the reduction.
	if !strings.Contains(string(out), "core.GsumTo(p, float64(ME), &shr.T)") {
		t.Errorf("operand not coerced to target type:\n%s", out)
	}
}

func TestGenerateReduceInSubroutine(t *testing.T) {
	src := `
Force S of NP ident ME
Shared Real T
End Declarations
Call HELP(T)
Join
Forcesub HELP(R)
Shared Real R
Private Real X
End Declarations
X = 2.0
GSUM X = X
GMAX R = X
Endsub
`
	out, err := Generate(forcelang.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	// R is a by-reference parameter: it may alias a caller's shared OR
	// private cell, so each process stores its own copy under the
	// runtime critical section (serialized: race-free when aliased).
	if !strings.Contains(s, `p.Critical("ZZGRED", func() { (*R) = zzRed })`) {
		t.Errorf("param target not stored under the reduction critical:\n%s", s)
	}
	if !strings.Contains(s, "X = core.Gsum(p, X)") {
		t.Errorf("private target not assigned per process:\n%s", s)
	}
}

func TestGenerateReduceIntoSharedArrayElement(t *testing.T) {
	// A shared array element's subscript may vary per process (A(ME+1)):
	// every process's element must receive the value, exactly as in the
	// interpreter, so the store is per-process and serialized — not the
	// single-store *To form.
	src := `
Force A of NP ident ME
Shared Integer A(8)
End Declarations
GSUM A(ME + 1) = 1
Join
`
	out, err := Generate(forcelang.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if strings.Contains(s, "GsumTo") {
		t.Errorf("array-element target must not use the single-store form:\n%s", s)
	}
	if !strings.Contains(s, "zzRed := core.Gsum(p, 1)") ||
		!strings.Contains(s, `p.Critical("ZZGRED", func() { shr.A[forcert.Idx1(5, "A", (ME+1), len(shr.A))] = zzRed })`) {
		t.Errorf("array-element target not stored per process under the reduction critical:\n%s", s)
	}
}
