// Package forcert is the run-time support every execution tier shares:
// the checks a Force program performs while it runs (integer divide, MOD,
// SQRT, array and async subscripts, a span's end points, loop steps), the
// one error value a failed check raises and its message text, the
// Fortran intrinsics, the indivisible update of a 64-bit shared cell
// behind the shared accumulate, and the formatting of Print lines.
//
// The closure compiler (internal/interp) calls these functions from its
// closures, the program internal/codegen emits imports the package and
// calls the very same functions, the tree walker raises the same error
// values and prints through the same formatter, and forcevet quotes the
// same messages — so a check's condition, its wording and a REAL's
// spelling each exist once.
//
// A failed check panics an *Err holding its site and operands as they
// are; the message is formatted only when somebody reports it
// (Err.Error).  A check in a span loop therefore costs a compare: every
// helper stays inside the Go inliner's budget across the package
// boundary, which no helper that calls out of line to format does once
// it checks two subscripts (TestCheckHelpersInline is the guard).
package forcert

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ErrKind says which check failed, and so which operands of an Err its
// message formats.
type ErrKind uint8

const (
	// Failure is any other run-time failure; Msg is the message.
	Failure ErrKind = iota
	// DivZero is an INTEGER division by zero.
	DivZero
	// ModZero is an INTEGER MOD by zero.
	ModZero
	// SqrtNegative is SQRT of the negative operand X.
	SqrtNegative
	// BadSubscript is subscript number Dim of array Name: S outside [1,N].
	BadSubscript
	// BadAsyncSubscript is the subscript of async array Name: S outside [1,N].
	BadAsyncSubscript
	// ZeroStep is a loop whose step evaluates to zero.
	ZeroStep
)

// Err is a Force run-time error, carried by panic through the SPMD
// machinery: the poison protocol re-panics the first failure in the
// driver, whose recover reports it.
type Err struct {
	Line int
	Kind ErrKind
	Dim  int     // BadSubscript: which subscript, from 1
	Name string  // BadSubscript, BadAsyncSubscript: the array
	S, N int64   // BadSubscript, BadAsyncSubscript: the subscript and the extent
	X    float64 // SqrtNegative: the operand
	Msg  string  // Failure: the message
}

// Errorf is a Failure with a formatted message.
func Errorf(line int, format string, args ...any) *Err {
	return &Err{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Message is the error text without its position: what the check found.
func (e *Err) Message() string {
	switch e.Kind {
	case DivZero:
		return "integer division by zero"
	case ModZero:
		return "MOD by zero"
	case SqrtNegative:
		return fmt.Sprintf("SQRT of negative value %g", e.X)
	case BadSubscript:
		return fmt.Sprintf("subscript %d of %s out of range: %d not in [1,%d]", e.Dim, e.Name, e.S, e.N)
	case BadAsyncSubscript:
		return fmt.Sprintf("subscript of async array %s out of range: %d not in [1,%d]", e.Name, e.S, e.N)
	case ZeroStep:
		return "loop step is zero"
	default:
		return e.Msg
	}
}

// Error is the line every tier reports: "force runtime: line N: ...".
func (e *Err) Error() string {
	return fmt.Sprintf("force runtime: line %d: %s", e.Line, e.Message())
}

// Integer is the INTEGER representation of either back end: the
// generated program's int, the interpreter's int64.
type Integer interface{ ~int | ~int64 }

// Number adds REAL.
type Number interface{ ~int | ~int64 | ~float64 }

// --- checks --------------------------------------------------------------

// Div is INTEGER division, checked.
func Div[T Integer](line int, a, b T) T {
	if b == 0 {
		panic(&Err{Line: line, Kind: DivZero})
	}
	return a / b
}

// ModInt is the INTEGER MOD intrinsic, checked.
func ModInt[T Integer](line int, a, b T) T {
	if b == 0 {
		panic(&Err{Line: line, Kind: ModZero})
	}
	return a % b
}

// Sqrt is the SQRT intrinsic, checked.
func Sqrt(line int, x float64) float64 {
	if x < 0 {
		panic(&Err{Line: line, Kind: SqrtNegative, X: x})
	}
	return math.Sqrt(x)
}

// Step is a loop step, checked to be nonzero.
func Step[T Integer](line int, s T) T {
	if s == 0 {
		panic(&Err{Line: line, Kind: ZeroStep})
	}
	return s
}

// Do opens a sequential DO from, to, step (step nonzero): it returns the
// first index, the step and the trip count, computed once at loop entry.
// Every back end runs the loop by that count,
//
//	for i, step, n := forcert.Do(from, to, step); n > 0; i, n = i+step, n-1 {
//
// so an index that would pass the end of INTEGER never wraps into another
// trip.  The count is unsigned: a loop over the whole of INTEGER, 2^64
// trips, saturates at 2^64-1.
func Do[T Integer](from, to, step T) (T, T, uint64) {
	var span, stride uint64
	switch {
	case step > 0 && from <= to:
		span, stride = uint64(to)-uint64(from), uint64(step)
	case step < 0 && from >= to:
		span, stride = uint64(from)-uint64(to), -uint64(step)
	default:
		return from, step, 0
	}
	if n := span / stride; n < math.MaxUint64 {
		return from, step, n + 1
	}
	return from, step, math.MaxUint64
}

// Idx1 is the 0-based offset of 1-based subscript s into an array of n
// elements, checked.
func Idx1[T Integer](line int, name string, s T, n int) int {
	if s < 1 || s > T(n) {
		panic(&Err{Line: line, Kind: BadSubscript, Dim: 1, Name: name, S: int64(s), N: int64(n)})
	}
	return int(s - 1)
}

// Idx2 is the row-major offset of (s1, s2) into a d1 x d2 array, each
// subscript checked against its own extent.
func Idx2[T Integer](line int, name string, s1, s2 T, d1, d2 int) int {
	if s1 < 1 || s1 > T(d1) {
		panic(&Err{Line: line, Kind: BadSubscript, Dim: 1, Name: name, S: int64(s1), N: int64(d1)})
	}
	if s2 < 1 || s2 > T(d2) {
		panic(&Err{Line: line, Kind: BadSubscript, Dim: 2, Name: name, S: int64(s2), N: int64(d2)})
	}
	return int(s1-1)*d2 + int(s2-1)
}

// Offset is Idx1 / Idx2 for a shape only known at run time (an array
// parameter takes its caller's).
func Offset(line int, name string, dims []int, subs []int64) int {
	if len(subs) != len(dims) {
		panic(Errorf(line, "%s: %d subscripts for %d dims", name, len(subs), len(dims)))
	}
	off := 0
	for k, s := range subs {
		if s < 1 || s > int64(dims[k]) {
			panic(&Err{Line: line, Kind: BadSubscript, Dim: k + 1, Name: name, S: s, N: int64(dims[k])})
		}
		off = off*dims[k] + int(s-1)
	}
	return off
}

// Span is the end-point test of a span check: the loop indices Lo..Hi
// (empty when Lo > Hi) at which every span-checked subscript of a DOALL
// is in range.  It starts as AllIndices and each subscript narrows it.
type Span struct{ Lo, Hi int64 }

// AllIndices is the Span no subscript has narrowed yet.
func AllIndices() Span { return Span{math.MinInt64, math.MaxInt64} }

// Narrow intersects s with the indices i at which c·i + rest, taken over
// the integers, is a subscript in 1..ext.  Judging the true value, not
// the wrapped one the program computes, is what keeps a passing span
// monotone: a product that wraps back into range
// (A(4611686018427387904*I + 1) at I = 4) leaves the interval and is
// decided by the per-iteration check.
func (s *Span) Narrow(c, rest, ext int64) {
	const big = 1 << 62 // 1-rest and ext-rest must not wrap themselves
	lo, hi := int64(1), int64(0)
	switch {
	case rest <= -big || rest >= big:
	case c == 0:
		if 1 <= rest && rest <= ext {
			return
		}
	case c == 1: // A(I + rest), A(rest - I): the common subscripts divide nothing
		lo, hi = 1-rest, ext-rest
	case c == -1:
		lo, hi = rest-ext, rest-1
	case c > 0:
		lo, hi = ceilDiv(1-rest, c), floorDiv(ext-rest, c)
	default:
		lo, hi = ceilDiv(ext-rest, c), floorDiv(1-rest, c)
	}
	s.Lo, s.Hi = max(s.Lo, lo), min(s.Hi, hi)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// Holds reports whether a span running first..last may skip the check of
// its references: both ends, hence every index between them, keep every
// narrowing subscript in range.
func (s Span) Holds(first, last int64) bool {
	return s.Lo <= first && first <= s.Hi && s.Lo <= last && last <= s.Hi
}

// InSpan is one subscript's end-point test, made once per span: whether
// c·i + rest, which is sub at index first, stays in 1..ext for every i
// from first to last.  sub − c·first is the rest in the program's
// wrapping arithmetic, the value the interpreter computes at index 0.
func InSpan[T Integer](c, first, sub, last T, ext int) bool {
	s := AllIndices()
	s.Narrow(int64(c), int64(sub)-int64(c)*int64(first), int64(ext))
	return s.Holds(int64(first), int64(last))
}

// AsyncIdx is the 0-based cell of 1-based subscript s into an async
// array of n cells, checked.
func AsyncIdx[T Integer](line int, name string, s T, n int) int {
	if s < 1 || s > T(n) {
		panic(&Err{Line: line, Kind: BadAsyncSubscript, Name: name, S: int64(s), N: int64(n)})
	}
	return int(s - 1)
}

// --- intrinsics ----------------------------------------------------------

// Int returns x as an INTEGER value, not a Go constant, at run time: a
// REAL truncated toward zero (a plain int() conversion of an untyped Go
// constant would be a compile error for non-integral values), an INTEGER
// unchanged.  The emitter spells the first operand of an INTEGER + - *
// over literals through it, so the operator wraps on overflow as in the
// interpreters instead of failing Go's exact constant arithmetic.
func Int[T Number](x T) int { return int(x) }

// Nint is the NINT intrinsic: round to nearest, halves away from zero.
func Nint(x float64) int { return int(math.Round(x)) }

// Real returns x as a value, not a Go constant: the emitter spells the
// first operand of a REAL operator over literals through it, so Go
// computes the operator at run time in IEEE arithmetic, as the
// interpreters do, instead of folding it exactly at compile time (where
// 0.0 / 0.0 does not compile and -1.0 * 0.0 is +0).
func Real(x float64) float64 { return x }

// Abs is the ABS intrinsic.  Subtracting from zero (not negating) clears
// the sign of a REAL -0.0, as math.Abs does.
func Abs[T Number](x T) T {
	if x <= 0 {
		return 0 - x
	}
	return x
}

// Min is the MIN intrinsic: the first argument unless a later one is
// strictly less (so a NaN never replaces it).
func Min[T Number](xs ...T) T {
	best := xs[0]
	for _, x := range xs[1:] {
		if x < best {
			best = x
		}
	}
	return best
}

// Max is the MAX intrinsic: the first argument unless a later one is
// strictly greater.
func Max[T Number](xs ...T) T {
	best := xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// ModReal is the REAL MOD intrinsic (IEEE: MOD(x, 0) is NaN, no error).
func ModReal(a, b float64) float64 { return math.Mod(a, b) }

// --- the shared accumulate -----------------------------------------------

// The shared accumulate (S = S + e, S = MAX(S, e), S = MIN(S, e) on a
// shared scalar) is one indivisible update of the 64-bit word holding S.
// Extrema replace the word only on the strict compare the intrinsic
// performs, so a NaN never wins and an untouched partial (the fold
// identity) stores nothing.

// Word views an INTEGER or REAL variable of the generated program as the
// atomic word it occupies.  (The interpreter's shared cells are
// atomic.Uint64 already.)  The generated program asserts int is 64 bits.
func Word[T int | float64](p *T) *atomic.Uint64 { return (*atomic.Uint64)(unsafe.Pointer(p)) }

// Add atomically adds d to an INTEGER word.  Two's-complement wraparound
// makes the unsigned add exact.
func Add[T Integer](w *atomic.Uint64, d T) {
	if d != 0 {
		w.Add(uint64(d))
	}
}

// MaxInt atomically folds x into an INTEGER word under MAX.
func MaxInt[T Integer](w *atomic.Uint64, x T) {
	for old := w.Load(); int64(x) > int64(old) && !w.CompareAndSwap(old, uint64(x)); old = w.Load() {
	}
}

// MinInt atomically folds x into an INTEGER word under MIN.
func MinInt[T Integer](w *atomic.Uint64, x T) {
	for old := w.Load(); int64(x) < int64(old) && !w.CompareAndSwap(old, uint64(x)); old = w.Load() {
	}
}

// MaxReal atomically folds x into a REAL word under MAX.
func MaxReal(w *atomic.Uint64, x float64) {
	for old := w.Load(); x > math.Float64frombits(old) && !w.CompareAndSwap(old, math.Float64bits(x)); old = w.Load() {
	}
}

// MinReal atomically folds x into a REAL word under MIN.
func MinReal(w *atomic.Uint64, x float64) {
	for old := w.Load(); x < math.Float64frombits(old) && !w.CompareAndSwap(old, math.Float64bits(x)); old = w.Load() {
	}
}

// --- Print ---------------------------------------------------------------

// Bit is a LOGICAL value as the word a global reduction carries: 1 for
// true, 0 for false.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FormatReal spells a REAL compactly but always distinguishably from an
// INTEGER (Fortran list-directed style, simplified): %g, with ".0"
// appended when the result would otherwise read as an integer.
func FormatReal(r float64) string { return string(appendReal(nil, r)) }

func appendReal(b []byte, r float64) []byte {
	n := len(b)
	b = strconv.AppendFloat(b, r, 'g', -1, 64)
	if !bytes.ContainsAny(b[n:], ".eE") && !math.IsInf(r, 0) && !math.IsNaN(r) {
		b = append(b, ".0"...)
	}
	return b
}

// Line builds one Print line: items separated by single spaces,
// INTEGERs in decimal, REALs through FormatReal, LOGICALs as T or F,
// ended by a newline.
type Line struct {
	b []byte
	n int // items so far
}

func (l *Line) next() {
	if l.n > 0 {
		l.b = append(l.b, ' ')
	}
	l.n++
}

// Str appends a string item.
func (l *Line) Str(s string) { l.next(); l.b = append(l.b, s...) }

// Int appends an INTEGER item.
func (l *Line) Int(i int64) { l.next(); l.b = strconv.AppendInt(l.b, i, 10) }

// Real appends a REAL item.
func (l *Line) Real(r float64) { l.next(); l.b = appendReal(l.b, r) }

// Bool appends a LOGICAL item.
func (l *Line) Bool(v bool) {
	l.next()
	if v {
		l.b = append(l.b, 'T')
	} else {
		l.b = append(l.b, 'F')
	}
}

// String ends the line and returns it.
func (l *Line) String() string { return string(append(l.b, '\n')) }

var outMu sync.Mutex

// Println is the generated program's Print statement: one Line of the
// items, written to standard output whole, so concurrent processes never
// interleave within a line.
func Println(items ...any) {
	var l Line
	for _, it := range items {
		switch v := it.(type) {
		case string:
			l.Str(v)
		case int:
			l.Int(int64(v))
		case float64:
			l.Real(v)
		case bool:
			l.Bool(v)
		default:
			l.Str(fmt.Sprint(v))
		}
	}
	outMu.Lock()
	os.Stdout.WriteString(l.String())
	outMu.Unlock()
}

// Report is the generated driver's recover handler: a run-time failure in
// any process poisons the force, the engine unwinds the peers, and
// core.Run re-panics the first failure in the driver, which reports it
// exactly as the interpreter tiers do through forcerun — the bare "force
// runtime: line N: ..." message on stderr, exit status 1 — instead of
// dying with a goroutine dump.  A nil r (no panic) returns.
func Report(r any) {
	switch e := r.(type) {
	case nil:
		return
	case *Err:
		fmt.Fprintln(os.Stderr, e.Error())
	default:
		fmt.Fprintln(os.Stderr, "force runtime error:", r)
	}
	os.Exit(1)
}

// CheckNP rejects a force size below 1 as a usage error of tool: one line
// on standard error, exit status 2.  forcerun and forcec call it right
// after flag parsing, so every execution tier refuses the same way and
// the request never reaches core.New's panic — or a cached binary's.
func CheckNP(tool string, np int) {
	if np < 1 {
		fmt.Fprintf(os.Stderr, "%s: invalid -np %d: a force needs at least one process\n", tool, np)
		os.Exit(2)
	}
}
