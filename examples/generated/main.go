// Code generated by forcec from Force program REDUCE; DO NOT EDIT.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Imports are unconditional; not every program prints or loops.
var _ = fmt.Println
var _ sched.Range
var _ asyncvar.Impl
var _ reduce.Kind
var _ barrier.Kind
var _ engine.PoolKind

// zzErr is a Force runtime error carried by panic through the SPMD
// machinery; the poison protocol re-panics the first failure in the
// driver, whose recover reports it exactly as the interpreter does.  It
// holds what the failed check saw; kind says which operands msg formats.
type zzErr struct {
	line int
	kind zzErrKind
	msg  string
	name string  // zzSubscript: the array
	s, n int     // zzSubscript: the subscript and the extent
	x    float64 // zzOperand: the offending operand
}

type zzErrKind int

const (
	zzLiteral   zzErrKind = iota // msg is the message
	zzSubscript                  // msg formats name, s, n
	zzOperand                    // msg formats x
)

func (e zzErr) Error() string {
	msg := e.msg
	switch e.kind {
	case zzSubscript:
		msg = fmt.Sprintf(msg, e.name, e.s, e.n)
	case zzOperand:
		msg = fmt.Sprintf(msg, e.x)
	}
	return fmt.Sprintf("force runtime: line %d: %s", e.line, msg)
}

// zzInt truncates toward zero at run time (a plain int() conversion of
// an untyped constant would be a compile error for non-integral values).
func zzInt(x float64) int { return int(x) }

func zzDiv(line, a, b int) int {
	if b == 0 {
		panic(zzErr{line: line, msg: "integer division by zero"})
	}
	return a / b
}

func zzMod(line, a, b int) int {
	if b == 0 {
		panic(zzErr{line: line, msg: "MOD by zero"})
	}
	return a % b
}

func zzSqrt(line int, x float64) float64 {
	if x < 0 {
		panic(zzErr{line: line, kind: zzOperand, msg: "SQRT of negative value %g", x: x})
	}
	return math.Sqrt(x)
}

func zzIdx1(line int, name string, s, n int) int {
	if s < 1 || s > n {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 1 of %s out of range: %d not in [1,%d]", name: name, s: s, n: n})
	}
	return s - 1
}

func zzIdx2(line int, name string, s1, s2, d1, d2 int) int {
	if s1 < 1 || s1 > d1 {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 1 of %s out of range: %d not in [1,%d]", name: name, s: s1, n: d1})
	}
	if s2 < 1 || s2 > d2 {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript 2 of %s out of range: %d not in [1,%d]", name: name, s: s2, n: d2})
	}
	return (s1-1)*d2 + s2 - 1
}

func zzChkStep(line, s int) int {
	if s == 0 {
		panic(zzErr{line: line, msg: "loop step is zero"})
	}
	return s
}

func zzAsyncIdx(line int, name string, s, n int) int {
	if s < 1 || s > n {
		panic(zzErr{line: line, kind: zzSubscript, msg: "subscript of async array %s out of range: %d not in [1,%d]", name: name, s: s, n: n})
	}
	return s - 1
}

// The shared accumulate (S = S + e, S = MAX(S, e), S = MIN(S, e) on a
// shared scalar) is one indivisible update: the helpers below view the
// int or float64 cell as the 64-bit word it is.  Extrema replace the
// cell only on the strict compare the intrinsic performs, so a NaN never
// wins and a span's untouched partial (the fold identity) stores nothing.
const _ = unsafe.Sizeof(int(0)) - 8 // an int cell must be one 64-bit word

func zzAddInt(p *int, d int) {
	if d != 0 {
		atomic.AddInt64((*int64)(unsafe.Pointer(p)), int64(d))
	}
}

func zzMaxInt(p *int, x int) {
	w := (*int64)(unsafe.Pointer(p))
	for old := atomic.LoadInt64(w); int64(x) > old && !atomic.CompareAndSwapInt64(w, old, int64(x)); old = atomic.LoadInt64(w) {
	}
}

func zzMinInt(p *int, x int) {
	w := (*int64)(unsafe.Pointer(p))
	for old := atomic.LoadInt64(w); int64(x) < old && !atomic.CompareAndSwapInt64(w, old, int64(x)); old = atomic.LoadInt64(w) {
	}
}

func zzMaxReal(p *float64, x float64) {
	w := (*uint64)(unsafe.Pointer(p))
	for old := atomic.LoadUint64(w); x > math.Float64frombits(old) && !atomic.CompareAndSwapUint64(w, old, math.Float64bits(x)); old = atomic.LoadUint64(w) {
	}
}

func zzMinReal(p *float64, x float64) {
	w := (*uint64)(unsafe.Pointer(p))
	for old := atomic.LoadUint64(w); x < math.Float64frombits(old) && !atomic.CompareAndSwapUint64(w, old, math.Float64bits(x)); old = atomic.LoadUint64(w) {
	}
}

// zzStoreInt and zzStoreReal publish a fused join's fold into a shared
// cell: every process stores the one value they all hold, atomically, so
// the concurrent identical stores are not a data race.
func zzStoreInt(p *int, v int) { atomic.StoreInt64((*int64)(unsafe.Pointer(p)), int64(v)) }

func zzStoreReal(p *float64, v float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), math.Float64bits(v))
}

// zzReal formats a REAL the way the interpreter does: %g, with a ".0"
// appended when the result would otherwise read as an integer.
func zzReal(r float64) string {
	s := strconv.FormatFloat(r, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(r, 0) && !math.IsNaN(r) {
		s += ".0"
	}
	return s
}

var zzOutMu sync.Mutex

// zzPrintln prints one line with the interpreter's formatting: items
// space-joined, REALs through zzReal, logicals as T/F.
func zzPrintln(items ...any) {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch v := it.(type) {
		case string:
			b.WriteString(v)
		case int:
			b.WriteString(strconv.Itoa(v))
		case float64:
			b.WriteString(zzReal(v))
		case bool:
			if v {
				b.WriteByte('T')
			} else {
				b.WriteByte('F')
			}
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	b.WriteByte('\n')
	zzOutMu.Lock()
	os.Stdout.WriteString(b.String())
	zzOutMu.Unlock()
}

// zzShared is the Force shared environment: shared and async
// variables of every program unit, COMMON-like.
type zzShared struct {
	DATA   []float64 // dims [1000]
	TOTAL  float64
	BIG    float64
	HITS   int
	RESULT core.AsyncCell[float64]
}

func zzNewShared(f *core.Force) *zzShared {
	s := &zzShared{}
	s.DATA = make([]float64, 1000)
	s.RESULT = core.NewAsync[float64](f)
	return s
}

func main() {
	np := flag.Int("np", 8, "number of force processes")
	flag.Parse()
	f := core.New(*np, core.WithPcaseSched(sched.SelfLock), core.WithReduce(reduce.PrivateSlots))
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(zzErr); ok {
				fmt.Fprintln(os.Stderr, e.Error())
			} else {
				fmt.Fprintln(os.Stderr, "force runtime error:", r)
			}
			os.Exit(1)
		}
	}()
	shr := zzNewShared(f)
	_ = shr
	f.Run(func(p *core.Proc) {
		ME := p.ID()
		_ = ME
		var I int
		_ = I
		var LOCSUM float64
		_ = LOCSUM
		var LOCMAX float64
		_ = LOCMAX
		{
			zzR := sched.Range{Start: 1, Last: 1000, Incr: 1}
			p.DoAllChunked(sched.PreschedBlock, zzR, func(zzLo, zzHi, zzStride int) {
				zzC := 0
				for zzK := zzLo; zzK < zzHi; zzK += zzStride {
					I = zzR.Start + zzK*zzR.Incr
					shr.DATA[zzIdx1(23, "DATA", I, len(shr.DATA))] = (float64(I) / 1000.0)
					if zzC++; zzC == 256 {
						zzC = 0
						p.Check()
					}
				}
				zzK := sched.CyclicLast(p.ID(), p.NP(), zzR.Count())
				I = zzR.Start + zzK*zzR.Incr
			})
		}
		LOCSUM = 0.0
		LOCMAX = 0.0
		{
			zzR := sched.Range{Start: 1, Last: 1000, Incr: 1}
			p.DoAllChunkedOpen(sched.SelfLock, zzR, func(zzLo, zzHi, zzStride int) {
				zzC := 0
				for zzK := zzLo; zzK < zzHi; zzK += zzStride {
					I = zzR.Start + zzK*zzR.Incr
					LOCSUM = (LOCSUM + (shr.DATA[zzIdx1(28, "DATA", I, len(shr.DATA))] * shr.DATA[zzIdx1(28, "DATA", I, len(shr.DATA))]))
					if shr.DATA[zzIdx1(29, "DATA", I, len(shr.DATA))] > LOCMAX {
						LOCMAX = shr.DATA[zzIdx1(30, "DATA", I, len(shr.DATA))]
					}
					if zzC++; zzC == 256 {
						zzC = 0
						p.Check()
					}
				}
			})
		}
		{
			zzOut := p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(LOCSUM))
			zzStoreReal(&shr.TOTAL, math.Float64frombits(zzOut))
		}
		core.GmaxTo(p, LOCMAX, &shr.BIG)
		core.GsumTo(p, 1, &shr.HITS)
		p.BarrierSection(func() {
			shr.RESULT.Produce(shr.TOTAL)
		})
		if ME == 0 {
			LOCSUM = shr.RESULT.Consume()
			zzPrintln("sum of squares =", LOCSUM)
			zzPrintln("largest element =", shr.BIG)
			zzPrintln("processes contributing:", shr.HITS)
		}
	})
}
