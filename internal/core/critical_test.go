package core

import (
	"testing"
	"time"
)

// TestCriticalAfterAbortUsesRebuiltSet: an aborted Run leaves every
// process remembering the lock it entered last, from the set the abort
// discards.  The next Run must take its critical sections on the rebuilt
// set: the discarded lock is held throughout it, so a process answered by
// a stale memo never gets in, and the count shows a lost update if the
// processes did not all meet on one lock.  The counters stay exact across
// both Runs.
func TestCriticalAfterAbortUsesRebuiltSet(t *testing.T) {
	const np, entries = 2, 2000
	f := New(np)
	defer f.Close()
	counter := 0
	bump := func() { counter++ }
	discarded := f.locks
	runExpectPanic(t, f, func(p *Proc) {
		for i := 0; i < entries; i++ {
			p.Critical("L", bump)
		}
		p.Barrier()
		if p.ID() == 1 {
			panic(errBoom)
		}
		p.Barrier()
	})
	if f.locks == discarded {
		t.Fatal("the aborted Run did not rebuild the lock set")
	}
	discarded.Get("L").Lock()
	defer discarded.Get("L").Unlock()

	counter = 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(func(p *Proc) {
			for i := 0; i < entries; i++ {
				p.Critical("L", bump)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a Critical after the abort waits for the discarded set's lock")
	}
	if counter != np*entries {
		t.Errorf("counter = %d after %d entries of %d processes, want %d", counter, entries, np, np*entries)
	}
	if got := f.Stats().Criticals.Load(); got != 2*np*entries {
		t.Errorf("Stats().Criticals = %d over both Runs, want %d", got, 2*np*entries)
	}
}

// TestCriticalAlternatingNamesAndResolve: two names entered alternately
// (every entry a change of name) keep exclusion per name, and a Resolve
// component entering a name its parent also uses takes the component's own
// lock through the component's Proc and the force's through the parent's.
func TestCriticalAlternatingNamesAndResolve(t *testing.T) {
	const np, rounds = 4, 500
	f := New(np)
	defer f.Close()
	var a, b, outer int
	var inner [2]int
	component := func(k int, p *Proc) Component {
		return Component{Weight: 1, Body: func(sp *Proc) {
			for i := 0; i < rounds; i++ {
				sp.Critical("x", func() { inner[k]++ })
				p.Critical("x", func() { outer++ })
			}
		}}
	}
	f.Run(func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Critical("a", func() { a++ })
			p.Critical("b", func() { b++ })
		}
		p.Resolve(component(0, p), component(1, p))
	})
	if a != np*rounds || b != np*rounds {
		t.Errorf("alternating names counted a = %d, b = %d, want %d each", a, b, np*rounds)
	}
	if inner != [2]int{2 * rounds, 2 * rounds} || outer != np*rounds {
		t.Errorf("inside Resolve: components counted %v, the parent's name %d; want %d each and %d", inner, outer, 2*rounds, np*rounds)
	}
	if got := f.Stats().Criticals.Load(); got != 3*np*rounds {
		t.Errorf("Stats().Criticals = %d, want %d (the sub-forces' Procs count for themselves)", got, 3*np*rounds)
	}
}

// TestCriticalSteadyStateZeroAllocs: on a running force a Critical
// allocates nothing, uncontended or contended.
func TestCriticalSteadyStateZeroAllocs(t *testing.T) {
	for _, np := range []int{1, 2} {
		f := New(np)
		counter := 0
		bump := func() { counter++ }
		body := func(p *Proc) {
			for i := 0; i < 64; i++ {
				p.Critical("c", bump)
			}
		}
		f.Run(body)
		if avg := testing.AllocsPerRun(50, func() { f.Run(body) }); avg != 0 {
			t.Errorf("np=%d: a Run of Criticals allocates %v objects, want 0", np, avg)
		}
		f.Close()
	}
}

// BenchmarkCritical is the named critical section's committed row, in the
// shape of forcemark's lock.critical_ns probe: the cost of one Critical
// entry on a running force, one op = one entry.  one-name/np=1 is the
// lock and unlock alone; at np=2 every entry contends for the one name;
// two-names/np=1 alternates names, so every entry resolves its name in the
// force's lock set.
func BenchmarkCritical(b *testing.B) {
	for _, row := range []struct {
		name  string
		np    int
		names []string
	}{
		{"one-name/np=1", 1, []string{"c"}},
		{"one-name/np=2", 2, []string{"c"}},
		{"two-names/np=1", 1, []string{"c", "d"}},
	} {
		b.Run(row.name, func(b *testing.B) {
			f := New(row.np)
			defer f.Close()
			counter := 0
			bump := func() { counter++ }
			b.ReportAllocs()
			b.ResetTimer()
			f.Run(func(p *Proc) {
				for i := p.ID(); i < b.N; i += row.np {
					p.Critical(row.names[i%len(row.names)], bump)
				}
			})
		})
	}
}
