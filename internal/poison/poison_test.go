package poison

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFirstPoisonWins(t *testing.T) {
	c := NewCell()
	if c.Poisoned() || c.Err() != nil || c.Value() != nil {
		t.Fatal("fresh cell reports poisoned")
	}
	e1, e2 := errors.New("first"), errors.New("second")
	if !c.Poison(e1) {
		t.Fatal("first Poison lost")
	}
	if c.Poison(e2) {
		t.Fatal("second Poison won")
	}
	if !c.Poisoned() || c.Err() != e1 || c.Value() != any(e1) {
		t.Fatalf("cell holds %v, want %v", c.Value(), e1)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after Poison")
	}
}

func TestNonErrorValue(t *testing.T) {
	c := NewCell()
	c.Poison("boom")
	if c.Value() != any("boom") {
		t.Fatalf("Value = %v", c.Value())
	}
	if c.Err() == nil || c.Err().Error() != "panic: boom" {
		t.Fatalf("Err = %v", c.Err())
	}
}

func TestNilCellSafe(t *testing.T) {
	var c *Cell
	if c.Poisoned() || c.Poison("x") || c.Err() != nil || c.Value() != nil {
		t.Fatal("nil cell not inert")
	}
	if c.Done() != nil {
		t.Fatal("nil cell Done not nil")
	}
	c.Check()
	c.Reset()
	ok := false
	Wait(c, func() bool { ok = !ok; return ok })
}

func TestCheckPanicsWithAbort(t *testing.T) {
	c := NewCell()
	c.Poison(errors.New("dead"))
	defer func() {
		r := recover()
		ab, ok := r.(Abort)
		if !ok {
			t.Fatalf("recovered %T, want Abort", r)
		}
		if ab.Err == nil || ab.Err.Error() != "dead" {
			t.Fatalf("Abort.Err = %v", ab.Err)
		}
	}()
	c.Check()
}

func TestWaitReturnsOnPred(t *testing.T) {
	c := NewCell()
	var flag atomic.Bool
	go func() {
		time.Sleep(5 * time.Millisecond)
		flag.Store(true)
	}()
	Wait(c, flag.Load)
}

func TestWaitAbortsOnPoison(t *testing.T) {
	c := NewCell()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Wait(c, func() bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	c.Poison(errors.New("stop"))
	select {
	case r := <-done:
		if _, ok := r.(Abort); !ok {
			t.Fatalf("waiter unwound with %T, want Abort", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poisoned waiter did not wake")
	}
}

func TestResetRearms(t *testing.T) {
	c := NewCell()
	c.Poison(errors.New("run 1"))
	c.Reset()
	if c.Poisoned() || c.Err() != nil || c.Value() != nil {
		t.Fatal("Reset did not clear the cell")
	}
	select {
	case <-c.Done():
		t.Fatal("Done still closed after Reset")
	default:
	}
	// The next run's poison closes the fresh wake channel.
	if !c.Poison(errors.New("run 2")) {
		t.Fatal("re-poison after Reset lost")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed by the re-poison")
	}
	if c.Err().Error() != "run 2" {
		t.Fatalf("Err = %v after re-poison", c.Err())
	}
}

func TestPoisonRace(t *testing.T) {
	c := NewCell()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if c.Poison(i) {
				wins.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d winners, want exactly 1", wins.Load())
	}
}
