// Code generated by forcec from Force program REDUCE; DO NOT EDIT.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"unsafe"

	"repro/internal/asyncvar"
	"repro/internal/core"
	"repro/internal/forcert"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Not every program computes, prints or loops.
var _ = math.Inf
var _ = forcert.Println
var _ sched.Range

// An INTEGER cell must be one 64-bit word: forcert.Word views it as one.
const _ = unsafe.Sizeof(int(0)) - 8

// zzShared is the Force shared environment: shared and async
// variables of every program unit, COMMON-like.
type zzShared struct {
	DATA   []float64 // dims [1000]
	TOTAL  float64
	BIG    float64
	HITS   int
	RESULT asyncvar.V[float64]
}

func main() {
	np := flag.Int("np", 8, "number of force processes")
	variants := core.VariantFlags(flag.CommandLine)
	flag.Parse()
	v, err := variants()
	if err != nil {
		fmt.Fprintln(os.Stderr, "force:", err)
		os.Exit(2)
	}
	f := core.New(*np, core.WithVariants(v))
	defer f.Close()
	defer func() { forcert.Report(recover()) }()
	shr := &zzShared{}
	_ = shr
	shr.DATA = make([]float64, 1000)
	shr.RESULT = core.NewAsync[float64](f)
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
				zzF, zzL := zzR.Index(zzLo), zzR.Index(zzHi-1)
				if zzStride == 1 && forcert.InSpan(1, zzF, zzF, zzL, 1000) {
					zzO0 := zzF - 1
					for zzJ, zzN := 0, zzHi-zzLo; zzJ < zzN; zzJ += 256 {
						zzM := min(zzN-zzJ, 256)
						zzA0 := shr.DATA[zzO0+zzJ:][:zzM]
						for zzK := 0; zzK < zzM; zzK++ {
							zzA0[zzK] = (float64((zzF + zzJ + zzK)) / 1000.0)
						}
						p.Check()
					}
				} else {
					zzC := 0
					for zzK := zzLo; zzK < zzHi; zzK += zzStride {
						I = zzR.Start + zzK*zzR.Incr
						shr.DATA[forcert.Idx1(23, "DATA", I, len(shr.DATA))] = (float64(I) / 1000.0)
						if zzC++; zzC == 256 {
							zzC = 0
							p.Check()
						}
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
			p.DoAllChunkedOpen(p.Selfsched(), 236, zzR, func(zzLo, zzHi, zzStride int) {
				zzC := 0
				for zzK := zzLo; zzK < zzHi; zzK += zzStride {
					I = zzR.Start + zzK*zzR.Incr
					LOCSUM = (LOCSUM + (shr.DATA[forcert.Idx1(28, "DATA", I, len(shr.DATA))] * shr.DATA[forcert.Idx1(28, "DATA", I, len(shr.DATA))]))
					if shr.DATA[forcert.Idx1(29, "DATA", I, len(shr.DATA))] > LOCMAX {
						LOCMAX = shr.DATA[forcert.Idx1(30, "DATA", I, len(shr.DATA))]
					}
					if zzC++; zzC == 256 {
						zzC = 0
						p.Check()
					}
				}
			})
		}
		p.FusedJoin(reduce.Sum, reduce.NumReal, math.Float64bits(LOCSUM), func(zzOut uint64) { forcert.Word(&shr.TOTAL).Store(zzOut) }, nil)
		p.FusedJoin(reduce.Max, reduce.NumReal, math.Float64bits(LOCMAX), func(zzOut uint64) { forcert.Word(&shr.BIG).Store(zzOut) }, nil)
		p.FusedJoin(reduce.Sum, reduce.NumInt, uint64(1), func(zzOut uint64) { forcert.Word(&shr.HITS).Store(zzOut) }, func() {
			shr.RESULT.Produce(shr.TOTAL)
		})
		if ME == 0 {
			LOCSUM = shr.RESULT.Consume()
			forcert.Println("sum of squares =", LOCSUM)
			forcert.Println("largest element =", shr.BIG)
			forcert.Println("processes contributing:", shr.HITS)
		}
	})
}
