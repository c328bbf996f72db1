package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/poison"
)

var errFail = errors.New("worker failed")

// TestRunCellPoisonsOnFirstPanic: the job boundary records the first
// failure in the cell, discards Abort unwinds from peers, and RunCell
// returns normally (the caller owns the cell).
func TestRunCellPoisonsOnFirstPanic(t *testing.T) {
	e := New(4)
	defer e.Close()
	c := poison.NewCell()
	e.RunCell(c, func(pid int) {
		if pid == 2 {
			panic(errFail)
		}
		// Peers block on the cell and unwind with Abort, which the job
		// boundary must swallow.
		poison.Wait(c, func() bool { return false })
	})
	if !c.Poisoned() || c.Value() != any(errFail) {
		t.Fatalf("cell holds %v, want %v", c.Value(), errFail)
	}
	// The workers survived: the engine serves the next run after Reset.
	c.Reset()
	var ran atomic.Int32
	e.RunCell(c, func(pid int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("after aborted run, next run reached %d workers, want 4", ran.Load())
	}
}

// TestRunCellFirstFailureWins: concurrent failures record exactly one
// value and no worker dies.
func TestRunCellFirstFailureWins(t *testing.T) {
	e := New(8)
	defer e.Close()
	c := poison.NewCell()
	e.RunCell(c, func(pid int) { panic(pid) })
	if !c.Poisoned() {
		t.Fatal("cell not poisoned")
	}
	if _, ok := c.Value().(int); !ok {
		t.Fatalf("cell holds %T, want a pid", c.Value())
	}
}

// TestPoolPoisonWakesParkedWorkers: workers parked in Next (no tasks,
// outstanding work never finishing) unwind when the cell is poisoned —
// both pool disciplines.
func TestPoolPoisonWakesParkedWorkers(t *testing.T) {
	for _, kind := range PoolKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c := poison.NewCell()
			p := NewPool(kind, 3, []any{1}, c)
			// pid 0 takes the only task and never calls Done; pids 1-2
			// park in Next.
			if _, ok := p.Next(0); !ok {
				t.Fatal("seed task missing")
			}
			unwound := make(chan any, 2)
			for pid := 1; pid <= 2; pid++ {
				go func(pid int) {
					defer func() { unwound <- recover() }()
					p.Next(pid)
				}(pid)
			}
			time.Sleep(10 * time.Millisecond)
			c.Poison(errFail)
			for i := 0; i < 2; i++ {
				select {
				case r := <-unwound:
					if _, ok := r.(poison.Abort); !ok {
						t.Fatalf("parked worker unwound with %v (%T), want poison.Abort", r, r)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("parked worker did not wake on poison")
				}
			}
		})
	}
}
