package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestGOpsAllStrategies(t *testing.T) {
	const np = 8
	for _, k := range reduce.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := New(np, WithReduce(k))
			defer f.Close()
			var bad atomic.Int64
			f.Run(func(p *Proc) {
				if got := Gsum(p, p.ID()+1); got != np*(np+1)/2 {
					bad.Add(1)
				}
				if got := Gmax(p, float64(p.ID())*1.5); got != 1.5*float64(np-1) {
					bad.Add(1)
				}
				if got := Gmin(p, int64(100-p.ID())); got != int64(100-(np-1)) {
					bad.Add(1)
				}
				if got := Gprod(p, 1+p.ID()%2); got != 16 { // 2^(np/2)
					bad.Add(1)
				}
				if Gand(p, true) != true || Gand(p, p.ID() != 3) != false {
					bad.Add(1)
				}
				if Gor(p, false) != false || Gor(p, p.ID() == 3) != true {
					bad.Add(1)
				}
			})
			if bad.Load() != 0 {
				t.Errorf("%d wrong reduction results", bad.Load())
			}
			if got := f.Stats().Reductions.Load(); got != 8*np {
				t.Errorf("Reductions stat = %d, want %d", got, 8*np)
			}
		})
	}
}

func TestGsumToStoresOnce(t *testing.T) {
	const np = 6
	f := New(np)
	defer f.Close()
	var total int
	var observed atomic.Int64
	f.Run(func(p *Proc) {
		got := GsumTo(p, 2, &total)
		// The store lands before any process is released, so every
		// process observes the final value immediately.
		if total == got && got == 2*np {
			observed.Add(1)
		}
	})
	if total != 2*np {
		t.Errorf("total = %d, want %d", total, 2*np)
	}
	if observed.Load() != np {
		t.Errorf("%d/%d processes observed the stored total", observed.Load(), np)
	}
}

func TestReduceSectionRunsOnceSuspended(t *testing.T) {
	const np = 8
	for _, k := range reduce.Kinds() {
		f := New(np, WithReduce(k))
		sectionRuns := 0 // unsynchronized on purpose: exactly one process writes it
		var wrong atomic.Int64
		f.Run(func(p *Proc) {
			type pair struct{ v, id int }
			win := ReduceSection(p, pair{v: (p.ID()*5)%np + 1, id: p.ID()}, func(a, b pair) pair {
				if b.v > a.v || (b.v == a.v && b.id < a.id) {
					return b
				}
				return a
			}, func(w pair) { sectionRuns++ })
			if win.v != np {
				wrong.Add(1)
			}
		})
		f.Close()
		if sectionRuns != 1 {
			t.Errorf("%s: section ran %d times, want 1", k, sectionRuns)
		}
		if wrong.Load() != 0 {
			t.Errorf("%s: %d processes saw a wrong argmax", k, wrong.Load())
		}
	}
}

func TestReduceInsideLoopBody(t *testing.T) {
	// A convergence-loop shape: repeated reductions in SPMD order, with
	// other constructs interleaved, on a non-native machine profile.
	const np = 4
	f := New(np, WithMachine(machine.Sequent), WithReduce(reduce.Critical))
	defer f.Close()
	var bad atomic.Int64
	f.Run(func(p *Proc) {
		for sweep := 0; sweep < 50; sweep++ {
			local := 0
			p.PreschedDo(sched.Seq(20), func(i int) { local += i })
			// The per-process shares sum to the whole iteration space.
			if Gsum(p, local) != 190 {
				bad.Add(1)
			}
			if Gsum(p, 1) != np {
				bad.Add(1)
			}
			p.Barrier()
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d wrong in-loop reductions", bad.Load())
	}
}

func TestReduceTraceEvents(t *testing.T) {
	const np = 4
	rec := trace.New(0)
	f := New(np, WithTrace(rec), WithReduce(reduce.PrivateSlots))
	defer f.Close()
	f.Run(func(p *Proc) {
		Gsum(p, 1)
		Gmax(p, float64(p.ID()))
		Gor(p, false)
	})
	events := rec.Events()
	if err := trace.CheckReduceParticipation(events, np); err != nil {
		t.Error(err)
	}
	if got := len(trace.Filter(events, trace.ReduceEnter)); got != 3*np {
		t.Errorf("%d reduce-enter events, want %d", got, 3*np)
	}
}

func TestReduceInsideResolveSubforce(t *testing.T) {
	// Sub-forces inherit the reduction strategy, and a reduction inside a
	// component is private to the component's processes.
	const np = 6
	f := New(np, WithReduce(reduce.Critical))
	defer f.Close()
	var a, b atomic.Int64
	f.Run(func(p *Proc) {
		p.Resolve(
			Component{Weight: 1, Body: func(sp *Proc) {
				if Gsum(sp, 1) == sp.NP() {
					a.Add(1)
				}
			}},
			Component{Weight: 1, Body: func(sp *Proc) {
				if Gsum(sp, 10) == 10*sp.NP() {
					b.Add(1)
				}
			}},
		)
	})
	if a.Load()+b.Load() != np {
		t.Errorf("component reductions: %d+%d correct results, want %d total", a.Load(), b.Load(), np)
	}
}
