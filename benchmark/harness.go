package main

// harness.go — the measuring loop.  A workload is a set of units (a
// program, an application, or for script-cold one pass over the whole
// set); every unit is measured at np=1 and at np=NP.  The loop is closed
// with one client: one op at a time, the only concurrency is the force.
//
// A round visits every (unit, configuration) once in a seeded shuffled
// order, so programs and configurations interleave and a slow regime of
// the box hits all of them alike.  Each visit collects garbage, times
// the calibration spins, then times one batch of a fixed number of ops:
// the batch is reported divided by its adjacent spin.  Rounds repeat
// until the run's time is spent; op counts per batch never change, so a
// longer run means more samples, not more work per sample.

import (
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// config is the force size of a visit: one process, or NP.
type config int

const (
	cfg1 config = iota
	cfgN
)

// unit is one thing a workload measures.
type unit struct {
	name string
	// ops is the number of ops in one batch.
	ops int
	// run executes one batch at np, verifying every op, and returns how
	// many ops failed.  rng is the bench's seeded source, for units that
	// shuffle their ops.
	run func(np int, tr *tracer, rng *rand.Rand) (failed int)
	// ref1 and refN, when non-nil, run the unit's reference version of
	// the same batch (sequential code at np=1; hand-written goroutines
	// or the other tier at np=NP) right beside the timed batch, for the
	// paired ratios.
	ref1 func() (failed int)
	refN func(np int) (failed int)
	// prog is the script behind the unit, when it is one program.
	prog *program
	// counts are the unit's exact counters, per configuration, gathered
	// in traced batches.
	counts [2]counts
}

// series holds the samples of one unit at one configuration, one entry
// per untraced batch.
type series struct {
	opNs      []float64 // time per op
	cost      []float64 // time per op / adjacent calibration spin
	delivered []float64 // NP*cal1/calN of the batch (cfgN only)
	refRatio  []float64 // time per op / reference's time per op
	allocs    []float64 // heap allocations per op
	allocKB   []float64 // KiB allocated per op
	tracedNs  []float64 // time per op of the traced batches
}

type bench struct {
	np         int
	rng        *rand.Rand
	units      []*unit
	samples    [][2]series
	tr         *tracer // nil unless the run is traced
	cal1Ns     []float64
	attempted  int
	failed     int
	opSeconds  float64 // time spent inside timed cfgN batches
	opsTimedN  int
	refFirst   bool
	rounds     int
	degraded   int
	batchesN   int
	unresolved bool
}

// degradedBelow is the share of NP below which a batch counts as taken
// on a box that was not delivering its CPUs.
const degradedBelow = 0.75

// minSurvivors is how many undegraded batches a unit needs, besides
// their being at least half of its batches, before its np=NP numbers are
// taken from them alone.  (Runs are time-boxed, so the count a run
// reaches depends on the workload: a fixed 20 would leave the slowest
// workload unresolved on a quiet box.)
const minSurvivors = 8

func newBench(np int, seed int64, units []*unit, traced bool) *bench {
	b := &bench{np: np, rng: rand.New(rand.NewSource(seed)), units: units, samples: make([][2]series, len(units))}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) npOf(c config) int {
	if c == cfgN {
		return b.np
	}
	return 1
}

// measureFor runs rounds until d has passed, and at least two rounds so
// a traced run has both kinds.  In a traced run odd rounds record spans
// and counters; the even rounds are the untraced reference the tracing
// overhead is measured against.
func (b *bench) measureFor(d time.Duration) {
	type visit struct {
		unit int
		cfg  config
	}
	visits := make([]visit, 0, 2*len(b.units))
	for i := range b.units {
		visits = append(visits, visit{i, cfg1}, visit{i, cfgN})
	}
	start := time.Now()
	for b.rounds < 2 || time.Since(start) < d {
		b.rng.Shuffle(len(visits), func(i, j int) { visits[i], visits[j] = visits[j], visits[i] })
		traced := b.tr != nil && b.rounds%2 == 1
		for _, v := range visits {
			b.measure(v.unit, v.cfg, traced)
		}
		b.rounds++
		b.refFirst = !b.refFirst
	}
}

// measure times one batch of unit ui at configuration c.
func (b *bench) measure(ui int, c config, traced bool) {
	u := b.units[ui]
	s := &b.samples[ui][c]
	np := b.npOf(c)
	ref := u.ref1
	if c == cfgN {
		ref = nil
		if u.refN != nil {
			ref = func() int { return u.refN(np) }
		}
	}

	runtime.GC()
	c1 := cal1()
	b.cal1Ns = append(b.cal1Ns, c1)
	cal, delivered := c1, 1.0
	if c == cfgN {
		cal = calN(np)
		delivered = float64(np) * c1 / cal
	}

	var tr *tracer
	if traced {
		tr = b.tr
		tr.unit, tr.cfg = ui, c
	}
	refNs := 0.0
	timeRef := func() {
		t0 := time.Now()
		b.failed += ref()
		refNs = float64(time.Since(t0))
		b.attempted += u.ops
	}
	if ref != nil && b.refFirst {
		timeRef()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	failed := u.run(np, tr, b.rng)
	dt := float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	if ref != nil && !b.refFirst {
		timeRef()
	}
	b.attempted += u.ops
	b.failed += failed

	perOp := dt / float64(u.ops)
	if traced {
		s.tracedNs = append(s.tracedNs, perOp)
		return
	}
	s.opNs = append(s.opNs, perOp)
	s.cost = append(s.cost, perOp/cal)
	if ref != nil {
		s.refRatio = append(s.refRatio, dt/refNs)
	}
	if c == cfgN {
		s.delivered = append(s.delivered, delivered)
		s.allocs = append(s.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(u.ops))
		s.allocKB = append(s.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(u.ops))
		b.opSeconds += dt / 1e9
		b.opsTimedN += u.ops
	}
}

// unitResult is what one unit's samples reduce to.
type unitResult struct {
	name                 string
	cost1, costN         float64 // median cost in spins
	ms1, msN, msN90      float64 // raw per-op milliseconds
	ratio1, ratioN       float64 // median paired ratios, NaN without a reference
	allocs, allocKB      float64
	samples1, samplesN   int
	unresolved           bool
	overhead1, overheadN float64 // traced / untraced median op time
}

// reduce turns the samples into per-unit medians.  A cfgN batch whose
// delivered parallelism was below degradedBelow*NP is left out of costN
// when at least minSurvivors batches, and at least half of all, remain;
// otherwise every batch counts and the unit is marked unresolved.
func (b *bench) reduce() []unitResult {
	out := make([]unitResult, len(b.units))
	for i, u := range b.units {
		s1, sN := &b.samples[i][cfg1], &b.samples[i][cfgN]
		r := unitResult{
			name:     u.name,
			cost1:    median(s1.cost),
			ms1:      median(s1.opNs) / 1e6,
			msN:      median(sN.opNs) / 1e6,
			msN90:    quantile(sN.opNs, 0.9) / 1e6,
			ratio1:   median(s1.refRatio),
			ratioN:   median(sN.refRatio),
			allocs:   median(sN.allocs),
			allocKB:  median(sN.allocKB),
			samples1: len(s1.cost),
			samplesN: len(sN.cost),
		}
		var good []float64
		for k, d := range sN.delivered {
			if b.np == 1 || d >= degradedBelow*float64(b.np) {
				good = append(good, sN.cost[k])
			}
		}
		b.degraded += len(sN.cost) - len(good)
		b.batchesN += len(sN.cost)
		if len(good) >= minSurvivors && 2*len(good) >= len(sN.cost) {
			r.costN = median(good)
		} else {
			r.costN = median(sN.cost)
			r.unresolved = true
			b.unresolved = true
		}
		r.overhead1 = median(s1.tracedNs) / median(s1.opNs)
		r.overheadN = median(sN.tracedNs) / median(sN.opNs)
		out[i] = r
	}
	return out
}

// deliveredAll pools the delivered parallelism of every cfgN batch.
func (b *bench) deliveredAll() []float64 {
	var all []float64
	for i := range b.samples {
		all = append(all, b.samples[i][cfgN].delivered...)
	}
	return all
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
