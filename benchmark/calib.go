package main

// calib.go — the calibration spin that makes timings repeat on a shared
// box, and the small statistics every report is built from.
//
// The kernel matters.  On the reference box raw timings of the same
// binary drift 30-40 % from minute to minute (a neighbour competing for
// the core's execution ports and the cache), and a latency-bound loop
// such as workload.Spin does not feel that at all: divided by it, the
// interpreter's timings still drift 22-27 %.  The spin below keeps four
// independent xorshift chains in flight and has each step update a word
// of a 512 KiB table, so it is slowed by what slows compiled Go code;
// divided by it, a long DOALL program, a sync-heavy program, a pass over
// the script set and a matrix product all repeat within 4-6 % over 25
// minutes (README.md, "Calibration", has the table).

import (
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// spinSteps is the length of one calibration spin, about 4-5 ms.
	// Costs are reported in spins: a cost of 3.0 means "three times as
	// long as this kernel took a moment ago".
	spinSteps = 1_000_000
	// spinTableWords sizes each goroutine's table: 64 Ki words =
	// 512 KiB, resident in the second-level cache like a script's arrays.
	spinTableWords = 1 << 16
)

// spinTable is one goroutine's calibration state; goroutines calibrating
// at once each have their own, so calN measures the CPUs and the cache
// they share, not false sharing.
type spinTable []uint64

// spinTables are allocated once: calibration must not allocate.
var spinTables = func() [maxNP]spinTable {
	var ts [maxNP]spinTable
	for i := range ts {
		ts[i] = make(spinTable, spinTableWords)
	}
	return ts
}()

// spin runs the calibration kernel once.
func (t spinTable) spin() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	mask := uint64(len(t) - 1)
	for i := 0; i < spinSteps; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		t[a&mask] += b
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		t[b&mask] += c
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		t[c&mask] += d
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
		t[d&mask] += a
	}
	return a + b + c + d
}

// spinOnce times np goroutines each running the calibration spin at
// once, in nanoseconds.
func spinOnce(np int) float64 {
	var wg sync.WaitGroup
	wg.Add(np)
	t0 := time.Now()
	for g := 0; g < np; g++ {
		go func(t spinTable) {
			defer wg.Done()
			t.spin()
		}(spinTables[g])
	}
	wg.Wait()
	return float64(time.Since(t0))
}

// calN is the calibration: what np raw goroutines get from the box at
// this moment.  A spin is as short as the bursts of interference on the
// box, and a burst that hits the spin but not the batch after it would
// make that batch look cheap, so the spin is timed twice and the faster
// one taken; a regime that lasts slows both.
func calN(np int) float64 {
	return math.Min(spinOnce(np), spinOnce(np))
}

// cal1 is the calibration of an np=1 batch.
func cal1() float64 { return calN(1) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation;
// NaN for an empty slice.  xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean averages ratios and costs across programs, so no one program's
// size sets the workload's number; NaN for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
