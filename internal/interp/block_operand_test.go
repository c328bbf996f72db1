package interp

import (
	"math"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
)

// TestBlockOperandsMatchStaged holds the block operators and folds that
// read an operand where it is — a scalar applied inside the loop, an
// element loaded from the array's words — to the staged path they replace:
// every operand copied into a buffer first, then stagedBin / stagedFold,
// the four-loop kernels block evaluation ran before.  Every operator,
// INTEGER MOD included, every operand-shape pair, element steps 1, -1 and
// 3, INTEGERs that wrap near ±2⁶³ and REAL NaN, ±0, ±Inf and subnormals;
// compared word for word.  A fold term that is an operator over elements
// or an element and a scalar, folded in the operator's one loop, is held
// to stagedBin into a buffer and stagedFold over it.  A temporary's buffer
// is an operand shape of its own, and each conditional extremum MatchRecur
// folds is held to its IF, evaluated element by element.
func TestBlockOperandsMatchStaged(t *testing.T) {
	reals := []float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_beef), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -2.5e-310, math.MaxFloat64, 1, -1.5, 3, 0.999, 1e-300}
	ints := []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, -1, 0, 1, 2, 3, 1 << 62, -(1 << 62), 0x9e3779b97f4a7c15 >> 1, -7, 13}
	arith := []uintptr{unsafe.Sizeof(opAdd{}), unsafe.Sizeof(opSub{}), unsafe.Sizeof(opMul{})}
	checkOperands(t, reals, append(arith, unsafe.Sizeof(opDiv{})), nil, ifRows[float64](t, "Real"), (*kctx).reals)
	// An INTEGER divisor is a nonzero literal (the plan's cannot-raise
	// rule); -1 meets -2⁶³, which / wraps and % takes to 0.
	checkOperands(t, ints, arith, []uintptr{unsafe.Sizeof(opDiv{}), unsafe.Sizeof(opMod{})}, ifRows[int64](t, "Integer"), (*kctx).ints)
}

// TestBlockBuffersSizedByCompile runs element-wise bodies whose
// temporaries sit on an operator's left over one block, in buffers sized
// from their own compilation (chunkPlan's nI, nR and temps) and grown by no
// other body, and holds the elements and privates they leave word for word
// to the plan-less body run index by index.
func TestBlockBuffersSizedByCompile(t *testing.T) {
	const n = 40
	for _, body := range []string{
		"K = L(I) * 2\nN(I) = K - I",
		"D = A(I) * 0.5 - 1.0\nB(I) = D * REAL(I)",
		"D = A(I) - 1.0\nB(I) = D * (D + 1.0)",
		"D = A(I) - 1.0\nB(I) = D * (ABS(A(I)) + ABS(C(I)))",
		"D = A(I) - 1.0\nB(I) = D * (A(I) * A(I) + C(I) * C(I))",
		"D = A(I) + 1.0\nK = NINT(D) - L(I)\nB(I) = D / (REAL(K) + 0.5) - -D\nN(I) = K * (L(I) + I)",
	} {
		fx := newSpanFixture(t, "Force TMPL of NP ident ME\nShared Real A(40), B(40), C(40)\nShared Integer L(40), N(40)\n"+
			"Private Real D\nPrivate Integer I, K\nEnd Declarations\nPresched DO I = 1, 40\n"+body+"\nEnd Presched DO\nJoin\n")
		if fx.cp.PerIter != "" {
			t.Fatalf("%q runs per iteration (%s)", body, fx.cp.PerIter)
		}
		syms := map[string]*forcelang.Symbol{}
		for _, name := range []string{"A", "B", "C", "L", "N", "D", "K"} {
			syms[name], _ = fx.prog.Scope.Lookup(name)
		}
		// run leaves B, N, D and K as a fresh process running the body —
		// its block form, or the checked body index by index — leaves them.
		run := func(block bool) []uint64 {
			in := fx.pr.in
			for k := 0; k < n; k++ {
				in.array(syms["A"]).storeReal(k, float64(k%9)*0.75-2.5)
				in.array(syms["C"]).storeReal(k, float64(k%5)-1.25)
				in.array(syms["L"]).storeInt(k, int64(k%7-3))
				in.array(syms["B"]).storeReal(k, 0)
				in.array(syms["N"]).storeInt(k, 0)
			}
			pr, fr := &cproc{in: in}, fx.c.units[""].newFrame(0)
			pr.k.enter(fx.cp, nil, pr, fr)
			if block {
				b := pr.k.blocks(fx.cp, n, 1)
				pr.k.i, b.n = 1, n
				runBody(fx.body, pr, fr)
			} else {
				checked := fx.cp.checkedBody(fx.c, fx.loop)
				for i := int64(1); i <= n; i++ {
					pr.k.i = i
					runBody(checked, pr, fr)
				}
			}
			var out []uint64
			for _, name := range []string{"B", "N"} {
				for k := 0; k < n; k++ {
					out = append(out, in.array(syms[name]).data[k].Load())
				}
			}
			return append(out, math.Float64bits(fr.priv[syms["D"].Slot].r), uint64(fr.priv[syms["K"].Slot].i))
		}
		if got, want := run(true), run(false); !slices.Equal(got, want) {
			t.Errorf("%q: the block form leaves\n%v\nthe per-iteration form\n%v", body, got, want)
		}
	}
}

// ifRow is one conditional extremum: the fold MatchRecur reads it as, and
// whether its IF replaces P by x.
type ifRow[T num] struct {
	acc     plan.Accum
	replace func(x, p T) bool
}

// ifRows reads the four IF shapes over a P of type typ with MatchRecur.
func ifRows[T num](t *testing.T, typ string) []ifRow[T] {
	t.Helper()
	rows := []struct {
		cond    string
		replace func(x, p T) bool
	}{
		{"X(I) .GT. P", func(x, p T) bool { return x > p }},
		{"P .LT. X(I)", func(x, p T) bool { return p < x }},
		{"X(I) .LT. P", func(x, p T) bool { return x < p }},
		{"P .GT. X(I)", func(x, p T) bool { return p > x }},
	}
	src := "Force IFX of NP ident ME\nShared " + typ + " X(8)\nPrivate " + typ + " P\nPrivate Integer I\nEnd Declarations\n"
	for _, r := range rows {
		src += "IF (" + r.cond + ") THEN\nP = X(I)\nEnd IF\n"
	}
	prog := forcelang.MustParse(src + "Join\n")
	out := make([]ifRow[T], len(rows))
	for k, r := range rows {
		_, terms := plan.MatchRecur(prog.Body[k])
		if len(terms) != 1 {
			t.Fatalf("IF (%s): MatchRecur finds %d terms", r.cond, len(terms))
		}
		out[k] = ifRow[T]{terms[0], r.replace}
	}
	return out
}

// checkOperands checks every operator of ops over vals, and every one of
// divs with a right operand that is never 0.
func checkOperands[T num](t *testing.T, vals []T, ops, divs []uintptr, ifs []ifRow[T], buf func(*kctx, int) []T) {
	t.Helper()
	const n, ext = 37, 3 * 37
	nonzero := slices.DeleteFunc(slices.Clone(vals), func(v T) bool { return v == 0 })
	all := append(slices.Clone(ops), divs...)
	// value returns operand side's k-th value, cycling through vals (a
	// divisor's through nonzero) at a different stride per side so that
	// every pair of values meets.
	var rvals []T
	divisor := func(op uintptr) {
		if rvals = vals; slices.Contains(divs, op) {
			rvals = nonzero
		}
	}
	value := func(side, k int) T {
		vs := vals
		if side == 1 {
			vs = rvals
		}
		return vs[(k*(1+side)+k/len(vs)+side)%len(vs)]
	}
	pr := &cproc{}
	pr.k.b = &blockCtx{di: 1, n: n, w: n, base: 2, bufI: make([]int64, 4*n), bufR: make([]float64, 4*n)}
	// operand builds side's operand in shape (0 buffer, 1 scalar — the
	// value at sk —, 2 element of coefficient coef at site side, 3 the
	// temporary at depth -1 - side) and the values it stands for, the
	// staged copy.
	operand := func(side, shape int, coef int64, sk int) (opnd[T], []T) {
		staged := make([]T, n)
		for k := range staged {
			staged[k] = value(side, k)
		}
		switch shape {
		case 0:
			src := slices.Clone(staged)
			return opnd[T]{ev: func(_ *cproc, _ *frame, dst []T) { copy(dst, src) }}, staged
		case 1:
			s := vals[sk]
			if side == 1 {
				s = rvals[sk%len(rvals)]
			}
			for k := range staged {
				staged[k] = s
			}
			return opnd[T]{s: func(*cproc, *frame) T { return s }}, staged
		case 3:
			copy(buf(&pr.k, -1-side), staged)
			return opnd[T]{tmp: -1 - side}, staged
		}
		data := make([]atomic.Uint64, ext)
		off := int64(0)
		if coef < 0 {
			off = ext - 1
		}
		for k, v := range staged {
			data[off+int64(k)*coef].Store(words([]T{v})[0])
		}
		pr.k.aff[side] = off
		return opnd[T]{data: data, k: coef, site: side}, staged
	}
	pr.k.aff = make([]int64, 2)
	// Every scalar value once, the element coefficients (steps, at a
	// block step of 1) cycling through 1/1, -1/1, 1/3 and 3/-1.
	for sk := range vals {
		coefs := [...][2]int64{{1, 1}, {-1, 1}, {1, 3}, {3, -1}}[sk%4]
		for _, op := range all {
			divisor(op)
			for _, lshape := range []int{0, 2, 3} { // an operator's left is a buffer or an element
				for rshape := 0; rshape < 4; rshape++ {
					l, ls := operand(0, lshape, coefs[0], sk)
					r, rs := operand(1, rshape, coefs[1], sk)
					want := slices.Clone(ls)
					stagedBin(op, want, rs)
					got := buf(&pr.k, 0)
					newBinOp(op, 0, l, r, buf)(pr, nil, got)
					for k, w := range words(want) {
						// Which of two NaN operands' payloads a + or * keeps is
						// the Go compiler's choice, which commutes them, on
						// the staged path as on this one.
						if g := words(got)[k]; g != w && !(ls[k] != ls[k] && rs[k] != rs[k] && got[k] != got[k]) {
							t.Errorf("%T operator %d, shapes %d/%d, coefficients %v, element %d: %v (%#x) op %v = %v (%#x), want %v (%#x)",
								got[0], op, lshape, rshape, coefs, k, ls[k], words(ls)[k], rs[k], got[k], g, want[k], w)
						}
					}
				}
			}
		}
		rvals = vals
		accs := []plan.Accum{{Op: plan.AccSum}, {Op: plan.AccSum, Negate: true}, {Op: plan.AccMax}, {Op: plan.AccMin}}
		for shape := 0; shape < 4; shape++ {
			for _, acc := range accs {
				o, staged := operand(0, shape, coefs[0], sk)
				want := stagedFold(acc.Op, acc.Negate, value(1, 3), staged)
				if got := newTerm(acc, 0, o, opnd[T]{}, buf)(pr, nil, value(1, 3)); !slices.Equal(words([]T{got}), words([]T{want})) {
					t.Errorf("%T fold %+v, shape %d, coefficient %d: got %v, want %v", got, acc, shape, coefs[0], got, want)
				}
			}
			for k, row := range ifs {
				o, staged := operand(0, shape, coefs[0], sk)
				want := value(1, 3)
				for _, x := range staged {
					if row.replace(x, want) {
						want = x
					}
				}
				if got := newTerm(row.acc, 0, o, opnd[T]{}, buf)(pr, nil, value(1, 3)); !slices.Equal(words([]T{got}), words([]T{want})) {
					t.Errorf("%T conditional extremum %d, shape %d, coefficient %d: got %v, want %v", got, k, shape, coefs[0], got, want)
				}
			}
		}
		// One pass: an element left, an element or scalar right.
		for _, op := range all {
			divisor(op)
			for rshape := 1; rshape < 3; rshape++ {
				for _, acc := range accs {
					l, ls := operand(0, 2, coefs[0], sk)
					r, rs := operand(1, rshape, coefs[1], sk)
					stagedBin(op, ls, rs)
					want := stagedFold(acc.Op, acc.Negate, vals[(sk+5)%len(vals)], ls)
					got := newTerm(acc, op, l, r, buf)(pr, nil, vals[(sk+5)%len(vals)])
					// A sum adds two NaNs when the partial and a term are
					// both NaN; which payload it keeps is the compiler's
					// choice (on 386 it commutes the addition).
					if !slices.Equal(words([]T{got}), words([]T{want})) && !(got != got && want != want && acc == accs[0]) {
						t.Errorf("%T fold %+v of operator %d, right shape %d, coefficients %v: got %v, want %v", got, acc, op, rshape, coefs, got, want)
					}
				}
			}
		}
	}
}

// stagedBin is the buffer-by-buffer operator block evaluation ran before
// operands were read in place, dst op= src: the oracle.
func stagedBin[T num](op uintptr, dst, src []T) {
	src = src[:len(dst)]
	switch op {
	case unsafe.Sizeof(opAdd{}):
		for k := range dst {
			dst[k] += src[k]
		}
	case unsafe.Sizeof(opSub{}):
		for k := range dst {
			dst[k] -= src[k]
		}
	case unsafe.Sizeof(opMul{}):
		for k := range dst {
			dst[k] *= src[k]
		}
	case unsafe.Sizeof(opMod{}): // the per-iteration path's MOD
		d, s := any(dst).([]int64), any(src).([]int64)
		for k := range d {
			d[k] = forcert.ModInt(0, d[k], s[k])
		}
	default:
		for k := range dst {
			dst[k] /= src[k]
		}
	}
}

// stagedFold is the fold of a staged term block evaluation ran before, with
// the strict compares MAX(S, e) / MIN(S, e) perform: the oracle.
func stagedFold[T num](op plan.AccOp, negate bool, v T, src []T) T {
	switch {
	case op == plan.AccSum && negate:
		for _, x := range src {
			v -= x
		}
	case op == plan.AccSum:
		for _, x := range src {
			v += x
		}
	case op == plan.AccMax:
		for _, x := range src {
			if x > v {
				v = x
			}
		}
	default:
		for _, x := range src {
			if x < v {
				v = x
			}
		}
	}
	return v
}

// TestFoldRoundsEachTerm: a REAL term folded inside its operator's loop is
// rounded before it is folded (foldOp's explicit conversion), as the
// per-iteration loop rounds it, so Go fuses no v + x*y into one FMA on a
// target that has the instruction; arm64 stands for ppc64le and s390x.
func TestFoldRoundsEachTerm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "foldOp[go.shape.float64") {
		t.Fatal("the listing has no REAL foldOp")
	}
	for _, l := range regexp.MustCompile(`(?m)^.*\bFN?M(ADD|SUB)D\b.*$`).FindAllString(string(out), 5) {
		t.Errorf("fused multiply-add: %s", l)
	}
}
