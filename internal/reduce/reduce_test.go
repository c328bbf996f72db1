package reduce

import (
	"sync"
	"testing"

	"repro/internal/lock"
)

// runEpisode drives one episode with np goroutine processes and returns
// every process's result.
func runEpisode[T any](t *testing.T, e Episode[T], np int, contrib func(pid int) T) []T {
	t.Helper()
	out := make([]T, np)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			out[pid] = e.Do(pid, contrib(pid))
		}(p)
	}
	wg.Wait()
	return out
}

func TestSumAllKindsAllNP(t *testing.T) {
	for _, k := range Kinds() {
		for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
			e := New[int](k, np, func(a, b int) int { return a + b }, Config[int]{})
			got := runEpisode(t, e, np, func(pid int) int { return pid + 1 })
			want := np * (np + 1) / 2
			for pid, g := range got {
				if g != want {
					t.Errorf("%s np=%d pid=%d: sum = %d, want %d", k, np, pid, g, want)
				}
			}
		}
	}
}

func TestMaxMinProd(t *testing.T) {
	combineMax := func(a, b int) int {
		if b > a {
			return b
		}
		return a
	}
	combineMin := func(a, b int) int {
		if b < a {
			return b
		}
		return a
	}
	combineProd := func(a, b int) int { return a * b }
	const np = 6
	for _, k := range Kinds() {
		eMax := New[int](k, np, combineMax, Config[int]{})
		for _, g := range runEpisode(t, eMax, np, func(pid int) int { return -10 + pid }) {
			if g != -5 {
				t.Errorf("%s: max = %d, want -5", k, g)
			}
		}
		eMin := New[int](k, np, combineMin, Config[int]{})
		for _, g := range runEpisode(t, eMin, np, func(pid int) int { return 100 - pid }) {
			if g != 95 {
				t.Errorf("%s: min = %d, want 95", k, g)
			}
		}
		eProd := New[int](k, np, combineProd, Config[int]{})
		for _, g := range runEpisode(t, eProd, np, func(pid int) int { return pid + 1 }) {
			if g != 720 {
				t.Errorf("%s: prod = %d, want 720", k, g)
			}
		}
	}
}

func TestBoolAndOr(t *testing.T) {
	const np = 5
	for _, k := range Kinds() {
		eAnd := New[bool](k, np, func(a, b bool) bool { return a && b }, Config[bool]{})
		for _, g := range runEpisode(t, eAnd, np, func(pid int) bool { return pid != 3 }) {
			if g {
				t.Errorf("%s: and = true, want false", k)
			}
		}
		eOr := New[bool](k, np, func(a, b bool) bool { return a || b }, Config[bool]{})
		for _, g := range runEpisode(t, eOr, np, func(pid int) bool { return pid == 3 }) {
			if !g {
				t.Errorf("%s: or = false, want true", k)
			}
		}
	}
}

func TestFloatReduction(t *testing.T) {
	const np = 8
	for _, k := range Kinds() {
		e := New[float64](k, np, func(a, b float64) float64 { return a + b }, Config[float64]{})
		for _, g := range runEpisode(t, e, np, func(pid int) float64 { return 0.5 }) {
			if g != 4.0 {
				t.Errorf("%s: float sum = %g, want 4.0", k, g)
			}
		}
	}
}

func TestCustomStructReduction(t *testing.T) {
	// Argmax over a struct element type.
	type best struct {
		val float64
		idx int
	}
	combine := func(a, b best) best {
		if b.val > a.val || (b.val == a.val && b.idx < a.idx) {
			return b
		}
		return a
	}
	const np = 7
	for _, k := range Kinds() {
		e := New[best](k, np, combine, Config[best]{})
		got := runEpisode(t, e, np, func(pid int) best {
			return best{val: float64((pid * 3) % 7), idx: pid}
		})
		// pid contributions: vals 0,3,6,2,5,1,4 -> max 6 at pid 2.
		for _, g := range got {
			if g.idx != 2 || g.val != 6 {
				t.Errorf("%s: argmax = %+v, want {6 2}", k, g)
			}
		}
	}
}

func TestOnCompleteRunsOnceBeforeRelease(t *testing.T) {
	const np = 8
	for _, k := range Kinds() {
		calls := 0
		var sawResult int
		e := New[int](k, np, func(a, b int) int { return a + b }, Config[int]{
			OnComplete: func(r int) { calls++; sawResult = r },
		})
		got := runEpisode(t, e, np, func(pid int) int { return 1 })
		// OnComplete runs in the completing process before anyone is
		// released, so by the time runEpisode returns it ran exactly
		// once — unsynchronized access here would be flagged by -race
		// if that ordering were broken.
		if calls != 1 {
			t.Errorf("%s: OnComplete ran %d times, want 1", k, calls)
		}
		if sawResult != np {
			t.Errorf("%s: OnComplete saw %d, want %d", k, sawResult, np)
		}
		for _, g := range got {
			if g != np {
				t.Errorf("%s: result %d, want %d", k, g, np)
			}
		}
	}
}

func TestCriticalUsesSuppliedLock(t *testing.T) {
	built := 0
	factory := func() lock.Lock {
		built++
		return lock.New(lock.TTAS)
	}
	e := New[int](Critical, 4, func(a, b int) int { return a + b }, Config[int]{Lock: factory})
	// The paper's idiom: one accumulator lock plus the two-lock
	// barrier's BARWIN/BARWOT pair, all from the machine's mechanism.
	if built != 3 {
		t.Fatalf("critical built %d locks, want 3 (accumulator + two-lock barrier pair)", built)
	}
	for _, g := range runEpisode(t, e, 4, func(pid int) int { return 2 }) {
		if g != 8 {
			t.Errorf("sum = %d, want 8", g)
		}
	}
}

func TestSlotsDeterministicOrder(t *testing.T) {
	// The slots strategy folds in pid order, so a non-commutative probe
	// combiner observes exactly the sequence 0,1,...,np-1.
	const np = 8
	for trial := 0; trial < 20; trial++ {
		var order []int
		e := New[int](PrivateSlots, np, func(a, b int) int {
			order = append(order, b)
			return a
		}, Config[int]{})
		runEpisode(t, e, np, func(pid int) int { return pid })
		if len(order) != np-1 {
			t.Fatalf("combine ran %d times, want %d", len(order), np-1)
		}
		for i, v := range order {
			if v != i+1 {
				t.Fatalf("trial %d: combine order %v, want pids in order", trial, order)
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus")
	}
}

func TestManyEpisodesUnderContention(t *testing.T) {
	// Stress: a convergence-loop shape — thousands of back-to-back
	// episodes, each a fresh object, results checked every round.  Run
	// under -race this exercises the publish/await ordering hard.
	const np = 4
	const rounds = 300
	for _, k := range Kinds() {
		var wg sync.WaitGroup
		episodes := make([]Episode[int], rounds)
		for r := range episodes {
			episodes[r] = New[int](k, np, func(a, b int) int { return a + b }, Config[int]{})
		}
		for p := 0; p < np; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if got := episodes[r].Do(pid, r); got != np*r {
						t.Errorf("%s round %d pid %d: %d, want %d", k, r, pid, got, np*r)
						return
					}
				}
			}(p)
		}
		wg.Wait()
	}
}
