package forcert

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// raised runs f and returns the *Err it panics, or nil.
func raised(f func()) (e *Err) {
	defer func() {
		if r := recover(); r != nil {
			e = r.(*Err)
		}
	}()
	f()
	return nil
}

// TestInSpan: the emitter's end-point test passes a span exactly when the
// per-iteration check passes every index of it — by brute force over
// small coefficients, rests and spans in either direction — and judges a
// subscript over the integers, so one that wraps back into range between
// the ends fails it.
func TestInSpan(t *testing.T) {
	for c := -3; c <= 3; c++ {
		for rest := -12; rest <= 12; rest++ {
			for first := -6; first <= 6; first++ {
				for last := -6; last <= 6; last++ {
					want := true
					for i := min(first, last); i <= max(first, last); i++ {
						if s := c*i + rest; s < 1 || s > 8 {
							want = false
						}
					}
					if got := InSpan(c, first, c*first+rest, last, 8); got != want {
						t.Fatalf("InSpan(%d, %d, %d, %d, 8) = %v, want %v", c, first, c*first+rest, last, got, want)
					}
				}
			}
		}
	}
	// 2·I + 3 at I = 1 and I = MaxInt64 is 5 and, wrapped, 1: both in
	// range, but 2·31 + 3 is 65.
	if InSpan(int64(2), 1, 5, math.MaxInt64, 64) {
		t.Error("a subscript wrapping back into range passes the end-point test")
	}
}

// TestChecksAndMessages pins every check's condition and the exact text
// all four tiers (and forcevet) report for it.
func TestChecksAndMessages(t *testing.T) {
	for name, tc := range map[string]struct {
		f    func()
		want string
	}{
		"div":        {func() { Div(3, 7, 0) }, "force runtime: line 3: integer division by zero"},
		"div int64":  {func() { Div(3, int64(7), int64(0)) }, "force runtime: line 3: integer division by zero"},
		"mod":        {func() { ModInt(4, 7, 0) }, "force runtime: line 4: MOD by zero"},
		"sqrt":       {func() { Sqrt(5, -2.25) }, "force runtime: line 5: SQRT of negative value -2.25"},
		"step":       {func() { Step(6, 0) }, "force runtime: line 6: loop step is zero"},
		"idx1 low":   {func() { Idx1(7, "A", 0, 4) }, "force runtime: line 7: subscript 1 of A out of range: 0 not in [1,4]"},
		"idx1 high":  {func() { Idx1(7, "A", int64(5), 4) }, "force runtime: line 7: subscript 1 of A out of range: 5 not in [1,4]"},
		"idx2 first": {func() { Idx2(8, "M", 9, 1, 8, 3) }, "force runtime: line 8: subscript 1 of M out of range: 9 not in [1,8]"},
		"idx2 both":  {func() { Idx2(8, "M", 0, 4, 8, 3) }, "force runtime: line 8: subscript 1 of M out of range: 0 not in [1,8]"},
		"idx2 2nd":   {func() { Idx2(8, "M", 1, 4, 8, 3) }, "force runtime: line 8: subscript 2 of M out of range: 4 not in [1,3]"},
		"offset":     {func() { Offset(9, "P", []int{2, 2}, []int64{2, 3}) }, "force runtime: line 9: subscript 2 of P out of range: 3 not in [1,2]"},
		"async":      {func() { AsyncIdx(10, "Q", 5, 4) }, "force runtime: line 10: subscript of async array Q out of range: 5 not in [1,4]"},
		"other":      {func() { panic(Errorf(11, "Put outside an %s body", "Askfor")) }, "force runtime: line 11: Put outside an Askfor body"},
	} {
		e := raised(tc.f)
		if e == nil || e.Error() != tc.want {
			t.Errorf("%s: %v, want %q", name, e, tc.want)
		}
	}
	if e := raised(func() {
		if Div(1, 7, 2) != 3 || Div(1, -7, 2) != -3 || ModInt(1, -7, 2) != -1 || Sqrt(1, 6.25) != 2.5 || Step(1, -2) != -2 {
			t.Error("checked arithmetic computes the wrong value")
		}
		if Idx1(1, "A", 4, 4) != 3 || Idx2(1, "M", 2, 3, 8, 3) != 5 || AsyncIdx(1, "Q", int64(1), 4) != 0 ||
			Offset(1, "P", []int{8, 3}, []int64{2, 3}) != 5 || Offset(1, "V", []int{4}, []int64{4}) != 3 {
			t.Error("a subscript maps to the wrong offset")
		}
	}); e != nil {
		t.Errorf("in-range operands raised %v", e)
	}
}

func TestIntrinsics(t *testing.T) {
	if Int(2.9) != 2 || Int(-2.9) != -2 || Nint(2.5) != 3 || Nint(-2.5) != -3 || Nint(2.4) != 2 {
		t.Error("INT truncates toward zero; NINT rounds halves away from zero")
	}
	if Abs(-3) != 3 || Abs(int64(4)) != 4 || Abs(-2.5) != 2.5 || math.Signbit(Abs(math.Copysign(0, -1))) {
		t.Error("ABS")
	}
	if Min(3, 1, 2) != 1 || Max(3.5, 1, 9.25) != 9.25 || Max(int64(-1), -2) != -1 {
		t.Error("MIN / MAX")
	}
	if nan := math.NaN(); Max(1.5, nan) != 1.5 || !math.IsNaN(Max(nan, 1.5)) {
		t.Error("MAX keeps its first argument unless a later one is strictly greater")
	}
	if ModReal(7.5, 2) != 1.5 || !math.IsNaN(ModReal(1, 0)) {
		t.Error("REAL MOD is math.Mod")
	}
}

// TestAccumulateWord hammers one word with every indivisible update from
// many goroutines: no update is lost, extrema end exact, NaN never wins.
func TestAccumulateWord(t *testing.T) {
	var sum, hi, lo, rhi, rlo atomic.Uint64
	var cell int
	var rcell float64
	lo.Store(uint64(math.MaxInt64))
	rhi.Store(math.Float64bits(math.Inf(-1)))
	rlo.Store(math.Float64bits(math.Inf(1)))
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				v := p*1000 + i
				Add(&sum, int64(3))
				Add(&sum, int64(-1))
				Add(&sum, int64(0))
				Add(Word(&cell), 1)
				MaxInt(&hi, int64(v))
				MinInt(&lo, int64(-v))
				MaxReal(&rhi, float64(v)+0.5)
				MaxReal(&rhi, math.NaN())
				MinReal(&rlo, -float64(v))
				MaxReal(Word(&rcell), float64(v))
			}
		}(p)
	}
	wg.Wait()
	if int64(sum.Load()) != 16000 || cell != 8000 || int64(hi.Load()) != 8000 || int64(lo.Load()) != -8000 {
		t.Errorf("sum %d cell %d hi %d lo %d", int64(sum.Load()), cell, int64(hi.Load()), int64(lo.Load()))
	}
	if r := math.Float64frombits(rhi.Load()); r != 8000.5 {
		t.Errorf("REAL max %v", r)
	}
	if r := math.Float64frombits(rlo.Load()); r != -8000 || rcell != 8000 {
		t.Errorf("REAL min %v, cell %v", r, rcell)
	}
}

func TestFormatting(t *testing.T) {
	for r, want := range map[float64]string{
		2: "2.0", 2.5: "2.5", -0.125: "-0.125", 1e21: "1e+21", 1e-7: "1e-07", 1e20: "1e+20", 123456789: "1.23456789e+08",
		math.Inf(1): "+Inf", math.Inf(-1): "-Inf",
	} {
		if got := FormatReal(r); got != want {
			t.Errorf("FormatReal(%v) = %q, want %q", r, got, want)
		}
	}
	if got := FormatReal(math.NaN()); got != "NaN" {
		t.Errorf("FormatReal(NaN) = %q", got)
	}
	var l Line
	l.Str("")
	l.Str("x =")
	l.Int(-3)
	l.Real(4)
	l.Bool(true)
	l.Bool(false)
	if got := l.String(); got != " x = -3 4.0 T F\n" {
		t.Errorf("line %q", got)
	}
	if got := new(Line).String(); got != "\n" {
		t.Errorf("empty line %q", got)
	}
}

// TestOneImplementation is the guard behind "every tier shares one set of
// run-time checks": each message a failed check reports, and the REAL
// formatting rule, is spelled in exactly one non-test Go file of the
// module — this package — and the Go emitter carries no prelude of its
// own (its helpers used to be named zz*, ≈180 lines inside a string
// literal compiled into every cached binary).
func TestOneImplementation(t *testing.T) {
	root := filepath.Join("..", "..")
	needles := []string{
		"integer division by zero", "MOD by zero", "SQRT of negative value",
		"out of range: ", "loop step is zero", ".eE",
	}
	found := map[string]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// benchmark/ is its own module; dot-directories are scratch.
			if rel == "benchmark" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/codegen/") && strings.Contains(string(src), "func zz") {
			t.Errorf("%s defines a zz* helper: run-time support belongs in internal/forcert", rel)
		}
		var sc scanner.Scanner
		fset := token.NewFileSet()
		sc.Init(fset.AddFile(path, fset.Base(), len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.STRING {
				continue
			}
			for _, n := range needles {
				if strings.Contains(lit, n) {
					if found[n] == nil {
						found[n] = map[string]bool{}
					}
					found[n][filepath.ToSlash(rel)] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range needles {
		if files := found[n]; len(files) != 1 || !files["internal/forcert/forcert.go"] {
			t.Errorf("%q is spelled in string literals of %v; want exactly once, in internal/forcert/forcert.go", n, files)
		}
	}
}
