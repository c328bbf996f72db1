package interp

// Race coverage for the compiled executor's per-variable shared store
// (run with go test -race, as the CI race job does): concurrent
// disjoint-element writes to the atomic-word arrays, same-element
// critical-section read-modify-writes, and asynchronous Produce/Consume
// flowing through slot-resolved frames.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/forcert"
)

// TestSharedDisjointElementWrites drives an 8-process force through a
// DOALL whose iterations write disjoint shared-array elements, then
// folds the array to check no write was lost.  Under ExecChunked the
// first loop stores through the chunk tier's typed accessors, so the
// race job covers them against the boxed per-element access of the fold.
func TestSharedDisjointElementWrites(t *testing.T) {
	for _, mode := range []ExecMode{ExecCompiled, ExecChunked} {
		t.Run(mode.String(), func(t *testing.T) {
			out := run(t, `Force DISJ of NP ident ME
Shared Real A(512)
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 512
  A(I) = REAL(I) * 2.0
End Presched DO
Barrier
  S = 0.0
End Barrier
Selfsched DO I = 1, 512
  Critical FOLD
    S = S + A(I)
  End Critical
End Selfsched DO
Barrier
  Print NINT(S)
End Barrier
Join
`, Config{NP: 8, Exec: mode})
			// 2 * (1 + ... + 512) = 512 * 513.
			if got := strings.TrimSpace(out); got != "262656" {
				t.Errorf("out = %q", got)
			}
		})
	}
}

// TestSharedSameElementCriticalWrites hammers one element of a shared
// array from every process inside a critical section: the construct
// lock alone orders the atomic element's read-modify-writes, and no
// update is lost.
func TestSharedSameElementCriticalWrites(t *testing.T) {
	out := run(t, `Force SAME of NP ident ME
Shared Integer C(8)
Private Integer I
End Declarations
Barrier
  C(3) = 0
End Barrier
Presched DO I = 1, 400
  Critical BUMP
    C(3) = C(3) + 1
  End Critical
End Presched DO
Barrier
  Print C(3)
End Barrier
Join
`, Config{NP: 8, Exec: ExecCompiled})
	if got := strings.TrimSpace(out); got != "400" {
		t.Errorf("out = %q", got)
	}
}

// TestAsyncThroughSlotFrames pushes Produce/Consume traffic through
// subroutine frames: the async entry is resolved at compile time, the
// subscript and the transferred values flow through slot-addressed
// private storage of each call frame.
func TestAsyncThroughSlotFrames(t *testing.T) {
	out := run(t, `Force ASYNCF of NP ident ME
Async Integer Q(4)
Shared Integer TOTAL
Private Integer I
End Declarations
Barrier
  TOTAL = 0
End Barrier
IF (ME .EQ. 0) THEN
  DO I = 1, 40
    Call FEED(I)
  End DO
End IF
IF (ME .GT. 0) THEN
  DO I = 1, 10
    Call DRAIN
  End DO
End IF
Barrier
  Print 'total', TOTAL
End Barrier
Join
Forcesub FEED(V)
Private Integer V
Private Integer SLOT
End Declarations
SLOT = MOD(V, 4) + 1
Produce Q(SLOT) = V
Endsub
Forcesub DRAIN()
Private Integer X, SLOT
End Declarations
SLOT = MOD(ME - 1, 4) + 1
Consume Q(SLOT) into X
Critical ACC
  TOTAL = TOTAL + X
End Critical
Endsub
`, Config{NP: 5, Exec: ExecCompiled})
	// Every produced value 1..40 is consumed exactly once.
	if got := strings.TrimSpace(out); got != "total 820" {
		t.Errorf("out = %q", got)
	}
}

// TestSharedArrayDirect exercises the array store below the language:
// concurrent disjoint stores, then concurrent same-element updates under
// an external mutex (the compiled Critical pattern), must never lose a
// write or trip the race detector.
func TestSharedArrayDirect(t *testing.T) {
	d := forcelang.Decl{Class: forcelang.Shared, Type: forcelang.TInt, Name: "A", Dims: []int{1024}}
	a := newSharedArray(d)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < 1024; i += 8 {
				a.store(i, intVal(int64(i)))
			}
		}(p)
	}
	wg.Wait()
	for i := 0; i < 1024; i++ {
		if v := a.load(i); v.i != int64(i) {
			t.Fatalf("a[%d] = %d", i, v.i)
		}
	}
	var mu sync.Mutex
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.Lock()
				a.store(7, intVal(a.load(7).i+1))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if v := a.load(7); v.i != 7+8*200 {
		t.Errorf("a[7] = %d, want %d", v.i, 7+8*200)
	}
}

// TestSharedElementMixedPaths hammers ONE element of a shared array from
// every direction at once: a per-iteration (ExecCompiled-style boxed
// store/load) writer, the chunk tier's typed accessors and, for the two
// numeric types, the block form's store kernel writing the whole array,
// for each declared type.  Every value a reader can observe must be one
// of the whole values some writer stored, in the array's own type —
// never a torn word and never another type's bit pattern.
func TestSharedElementMixedPaths(t *testing.T) {
	const rounds = 20000
	t.Run("REAL", func(t *testing.T) {
		a := newSharedArray(forcelang.Decl{Class: forcelang.Shared, Type: forcelang.TReal, Name: "A", Dims: []int{4}})
		ok := func(r float64) bool { return r == 0 || r == 1.5 || r == -2.25 || r == 4.75 }
		block := words([]float64{4.75, 4.75, 4.75, 4.75})
		hammer(t, rounds,
			[]func(){
				func() { a.store(2, realVal(1.5)) },
				func() { a.storeReal(2, -2.25) },
				func() { storeBlock(a.data, 0, 1, block) },
			},
			func() bool { v := a.load(2); return v.t == forcelang.TReal && ok(v.r) },
			func() bool { return ok(a.loadReal(2)) })
	})
	t.Run("INTEGER", func(t *testing.T) {
		a := newSharedArray(forcelang.Decl{Class: forcelang.Shared, Type: forcelang.TInt, Name: "A", Dims: []int{4}})
		// Values whose halves differ, so a torn word would show.
		const x, y, z = int64(0x0123456789abcdef), int64(-0x0fedcba987654321), int64(0x7edcba9876543210)
		ok := func(i int64) bool { return i == 0 || i == x || i == y || i == z }
		block := words([]int64{z, z, z, z})
		hammer(t, rounds,
			[]func(){
				func() { a.store(2, intVal(x)) },
				func() { a.storeInt(2, y) },
				func() { storeBlock(a.data, 3, -1, block) },
			},
			func() bool { v := a.load(2); return v.t == forcelang.TInt && ok(v.i) },
			func() bool { return ok(a.loadInt(2)) })
	})
	t.Run("LOGICAL", func(t *testing.T) {
		a := newSharedArray(forcelang.Decl{Class: forcelang.Shared, Type: forcelang.TLogical, Name: "A", Dims: []int{4}})
		hammer(t, rounds,
			[]func(){
				func() { a.store(2, boolVal(true)) },
				func() { a.storeBool(2, false) },
			},
			func() bool { return a.load(2).t == forcelang.TLogical },
			func() bool { a.loadBool(2); return a.data[2].Load() <= 1 })
	})
}

// hammer runs the writers and the two checking readers concurrently,
// rounds times each.
func hammer(t *testing.T, rounds int, writers []func(), r1, r2 func() bool) {
	t.Helper()
	var wg sync.WaitGroup
	for _, w := range writers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				w()
			}
		}()
	}
	for _, r := range []func() bool{r1, r2} {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !r() {
					t.Error("torn or mistyped element observed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedScalarAddInt checks the accumulator entry point the chunk
// tier flushes private sums through: concurrent forcert.Add deltas (positive
// and negative) against concurrent typed loads, with an exact total.
func TestSharedScalarAddInt(t *testing.T) {
	c := newSharedScalar(forcelang.TInt)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if p%2 == 0 {
					forcert.Add(&c.bits, int64(3))
				} else {
					forcert.Add(&c.bits, int64(-1))
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.loadInt()
		}
	}()
	wg.Wait()
	<-done
	if got := c.loadInt(); got != 4*1000*3-4*1000 {
		t.Errorf("total = %d, want %d", got, 4*1000*3-4*1000)
	}
}

// TestSharedScalarDirect checks the atomic scalar cell under concurrent
// typed stores: every load observes one of the stored values, whole.
func TestSharedScalarDirect(t *testing.T) {
	c := newSharedScalar(forcelang.TReal)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.store(realVal(float64(p) + 0.25))
			}
		}(p)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.load()
			frac := v.r - float64(int(v.r))
			if v.r != 0 && frac != 0.25 {
				t.Error("torn read:", v.r)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
}
