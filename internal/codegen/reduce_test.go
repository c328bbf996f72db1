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
	// Every reduction is one join.  Shared targets are stored once, by
	// the completing process inside it; private targets assign the
	// returned fold per process.
	for _, want := range []string{
		`core.VariantFlags(flag.CommandLine, "-reduce", "critical")`,
		"p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(X), func(zzOut uint64) { forcert.Word(&shr.TOTAL).Store(zzOut) }, nil)",
		"p.FusedJoin(reduce.Prod, reduce.NumInt, uint64((ME + 1)), func(zzOut uint64) { forcert.Word(&shr.COUNT).Store(zzOut) }, nil)",
		"p.FusedJoin(reduce.Max, reduce.NumReal, math.Float64bits(X), func(zzOut uint64) { forcert.Word(&shr.TOTAL).Store(zzOut) }, nil)",
		"zzOut := p.FusedJoin(reduce.Min, reduce.NumReal, math.Float64bits(shr.TOTAL), nil, nil)\n\t\t\tX = math.Float64frombits(zzOut)",
		"p.FusedJoin(reduce.And, reduce.NumInt, forcert.Bit(B), func(zzOut uint64) { shr.OK = zzOut != 0 }, nil)",
		"zzOut := p.FusedJoin(reduce.Or, reduce.NumInt, forcert.Bit(shr.OK), nil, nil)\n\t\t\tB = zzOut != 0",
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
	if !strings.Contains(string(out), "p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(float64(ME)), ") {
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
	if !strings.Contains(s, `p.Critical("ZZGRED", func() { (*R) = math.Float64frombits(zzOut) })`) {
		t.Errorf("param target not stored under the reduction critical:\n%s", s)
	}
	if !strings.Contains(s, "zzOut := p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(X), nil, nil)\n\t\tX = math.Float64frombits(zzOut)") {
		t.Errorf("private target not assigned per process:\n%s", s)
	}
}

func TestGenerateReduceIntoSharedArrayElement(t *testing.T) {
	// A shared array element's subscript may vary per process (A(ME+1)):
	// every process's element must receive the value, exactly as in the
	// interpreter, so the store is per-process and serialized — not the
	// join's once-only store.
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
	if !strings.Contains(s, "zzOut := p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(1), nil, nil)") ||
		!strings.Contains(s, `p.Critical("ZZGRED", func() { shr.A[forcert.Idx1(5, "A", (ME+1), len(shr.A))] = int(zzOut) })`) {
		t.Errorf("array-element target not stored per process under the reduction critical:\n%s", s)
	}
}
