package interp

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/plan"
)

// TestBlockOperandsMatchStaged holds the block operators and folds that
// read an operand where it is — a scalar applied inside the loop, an
// element loaded from the array's words — to the staged path they replace:
// every operand copied into a buffer first, then stagedBin / stagedFold,
// the four-loop kernels block evaluation ran before.  Every operator,
// every operand-shape pair, element steps 1, -1 and 3, INTEGERs that wrap
// near ±2⁶³ and REAL NaN, ±0, ±Inf and subnormals; compared word for word.
func TestBlockOperandsMatchStaged(t *testing.T) {
	reals := []float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_beef), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -2.5e-310, math.MaxFloat64, 1, -1.5, 3, 0.999, 1e-300}
	ints := []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, -1, 0, 1, 2, 3, 1 << 62, -(1 << 62), 0x9e3779b97f4a7c15 >> 1}
	checkOperands(t, reals, []forcelang.BinOp{forcelang.OpAdd, forcelang.OpSub, forcelang.OpMul, forcelang.OpDiv}, (*kctx).reals)
	checkOperands(t, ints, []forcelang.BinOp{forcelang.OpAdd, forcelang.OpSub, forcelang.OpMul}, (*kctx).ints)
}

func checkOperands[T num](t *testing.T, vals []T, ops []forcelang.BinOp, buf func(*kctx, int) []T) {
	t.Helper()
	const n, ext = 37, 3 * 37
	// value returns operand side's k-th value, cycling through vals at a
	// different stride per side so that every pair of values meets.
	value := func(side, k int) T { return vals[(k*(1+side)+k/len(vals)+side)%len(vals)] }
	pr := &cproc{}
	pr.k.b = &blockCtx{di: 1, n: n, w: n, bufI: make([]int64, 2*n), bufR: make([]float64, 2*n)}
	// operand builds side's operand in shape (0 buffer, 1 scalar — the
	// value at sk —, 2 element of coefficient coef at site side) and the
	// values it stands for, the staged copy.
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
			for k := range staged {
				staged[k] = s
			}
			return opnd[T]{s: func(*cproc, *frame) T { return s }}, staged
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
		for _, lshape := range []int{0, 2} { // an operator's left is a buffer or an element
			for rshape := 0; rshape < 3; rshape++ {
				for _, op := range ops {
					l, ls := operand(0, lshape, coefs[0], sk)
					r, rs := operand(1, rshape, coefs[1], sk)
					want := slices.Clone(ls)
					stagedBin(op, want, rs)
					got := buf(&pr.k, 0)
					newBinOp(op, l, r, buf)(pr, nil, got)
					for k, w := range words(want) {
						// Which of two NaN operands' payloads a + or * keeps is
						// the Go compiler's choice, which commutes them, on
						// the staged path as on this one.
						if g := words(got)[k]; g != w && !(ls[k] != ls[k] && rs[k] != rs[k] && got[k] != got[k]) {
							t.Errorf("%T %v, shapes %d/%d, coefficients %v, element %d: %v (%#x) op %v = %v (%#x), want %v (%#x)",
								got[0], op, lshape, rshape, coefs, k, ls[k], words(ls)[k], rs[k], got[k], g, want[k], w)
						}
					}
				}
			}
		}
		for shape := 0; shape < 3; shape++ {
			for _, acc := range []plan.Accum{{Op: plan.AccSum}, {Op: plan.AccSum, Negate: true}, {Op: plan.AccMax}, {Op: plan.AccMin}} {
				o, staged := operand(0, shape, coefs[0], sk)
				want, got := value(1, 3), value(1, 3)
				want = stagedFold(acc.Op, acc.Negate, want, staged)
				f := &fold[T]{[]plan.Accum{acc}, []opnd[T]{o}, buf, func(*cproc, *frame) *T { return &got }}
				f.run(pr, nil)
				if !slices.Equal(words([]T{got}), words([]T{want})) {
					t.Errorf("%T fold %+v, shape %d, coefficient %d: got %v, want %v", got, acc, shape, coefs[0], got, want)
				}
			}
		}
	}
}

// newBinOp compiles l op r at depth 0 as bArith does.
func newBinOp[T num](op forcelang.BinOp, l, r opnd[T], buf func(*kctx, int) []T) blk[T] {
	switch op {
	case forcelang.OpAdd:
		return (&binOp[T, opAdd]{0, l, r, buf}).run
	case forcelang.OpSub:
		return (&binOp[T, opSub]{0, l, r, buf}).run
	case forcelang.OpMul:
		return (&binOp[T, opMul]{0, l, r, buf}).run
	}
	return (&binOp[T, opDiv]{0, l, r, buf}).run
}

// stagedBin is the buffer-by-buffer operator block evaluation ran before
// operands were read in place, dst op= src: the oracle.
func stagedBin[T num](op forcelang.BinOp, dst, src []T) {
	src = src[:len(dst)]
	switch op {
	case forcelang.OpAdd:
		for k := range dst {
			dst[k] += src[k]
		}
	case forcelang.OpSub:
		for k := range dst {
			dst[k] -= src[k]
		}
	case forcelang.OpMul:
		for k := range dst {
			dst[k] *= src[k]
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
