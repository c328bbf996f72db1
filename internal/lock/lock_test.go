package lock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		TAS:      "tas",
		TTAS:     "ttas",
		System:   "system",
		Combined: "combined",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
	if got := Kind(99).String(); got != "lock.Kind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded, want error")
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(unknown) did not panic")
		}
	}()
	New(Kind(42))
}

func TestBasicLockUnlock(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			l := New(k)
			l.Lock()
			l.Unlock()
			l.Lock()
			l.Unlock()
		})
	}
}

// TestMutualExclusion increments a plain int from many goroutines under
// each lock kind; any lost update means mutual exclusion was violated.
func TestMutualExclusion(t *testing.T) {
	const (
		goroutines = 8
		increments = 2000
	)
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			l := New(k)
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < increments; i++ {
						l.Lock()
						counter++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if want := goroutines * increments; counter != want {
				t.Errorf("counter = %d, want %d", counter, want)
			}
		})
	}
}

func TestTryLock(t *testing.T) {
	for _, k := range []Kind{TAS, TTAS, System, Combined} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			l := New(k).(TryLocker)
			if !l.TryLock() {
				t.Fatal("TryLock on fresh lock failed")
			}
			if l.TryLock() {
				t.Fatal("TryLock on held lock succeeded")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("TryLock after Unlock failed")
			}
			l.Unlock()
		})
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	for _, k := range []Kind{TAS, TTAS} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Unlock of unlocked lock did not panic")
				}
			}()
			New(k).Unlock()
		})
	}
}

func TestCombinedLockBudgets(t *testing.T) {
	for _, budget := range []int{-1, 0, 1, 1000} {
		l := NewCombinedLock(budget)
		l.Lock()
		done := make(chan struct{})
		go func() {
			l.Lock()
			l.Unlock()
			close(done)
		}()
		l.Unlock()
		<-done
	}
}

func TestSetGetIsStable(t *testing.T) {
	s := NewSet(Factory(TAS))
	a := s.Get("alpha")
	b := s.Get("alpha")
	if a != b {
		t.Error("Set.Get returned different locks for the same name")
	}
	if s.Get("beta") == a {
		t.Error("Set.Get returned the same lock for different names")
	}
}

func TestSetNilFactoryDefaults(t *testing.T) {
	s := NewSet(nil)
	l := s.Get("x")
	if _, ok := l.(*SystemLock); !ok {
		t.Errorf("nil-factory Set produced %T, want *SystemLock", l)
	}
}

func TestSetWithMutualExclusion(t *testing.T) {
	s := NewSet(Factory(TTAS))
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l := s.Get("ctr")
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8*500 {
		t.Errorf("counter = %d, want %d", counter, 8*500)
	}
}

func TestSetNames(t *testing.T) {
	s := NewSet(Factory(System))
	s.Get("a")
	s.Get("b")
	s.Get("a")
	names := s.Names()
	if len(names) != 2 {
		t.Fatalf("Names() = %v, want 2 entries", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("Names() = %v, want {a,b}", names)
	}
}

// TestConcurrentSetCreation races many goroutines creating the same named
// lock; all must observe the same instance.
func TestConcurrentSetCreation(t *testing.T) {
	s := NewSet(Factory(TAS))
	const n = 16
	results := make(chan Lock, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- s.Get("shared")
		}()
	}
	wg.Wait()
	close(results)
	first := <-results
	for l := range results {
		if l != first {
			t.Fatal("concurrent Get returned different lock instances")
		}
	}
}

// Property: for any interleaving of k workers each doing m guarded
// increments under any lock kind, the final count is k*m.
func TestQuickMutualExclusion(t *testing.T) {
	prop := func(kindIdx uint8, workers, incs uint8) bool {
		kinds := Kinds()
		k := kinds[int(kindIdx)%len(kinds)]
		w := int(workers)%6 + 1
		m := int(incs)%200 + 1
		l := New(k)
		counter := 0
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < m; i++ {
					l.Lock()
					counter++
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		return counter == w*m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
