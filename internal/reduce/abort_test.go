package reduce

import (
	"errors"
	"testing"
	"time"

	"repro/internal/poison"
)

// TestPoisonWakesIncompleteEpisode: for every strategy, contributors
// waiting on a combination that can never complete (one contribution
// missing) unwind with poison.Abort.
func TestPoisonWakesIncompleteEpisode(t *testing.T) {
	for _, k := range Kinds() {
		for _, np := range []int{2, 4, 7} {
			t.Run(k.String(), func(t *testing.T) {
				c := poison.NewCell()
				ep := New[int](k, np, func(a, b int) int { return a + b }, Config[int]{Poison: c})
				unwound := make(chan any, np)
				for pid := 0; pid < np-1; pid++ { // pid np-1 never contributes
					go func(pid int) {
						defer func() { unwound <- recover() }()
						ep.Do(pid, 1)
					}(pid)
				}
				time.Sleep(10 * time.Millisecond)
				c.Poison(errors.New("process died"))
				for i := 0; i < np-1; i++ {
					select {
					case r := <-unwound:
						if _, ok := r.(poison.Abort); !ok {
							t.Fatalf("np=%d: contributor unwound with %v (%T), want poison.Abort", np, r, r)
						}
					case <-time.After(30 * time.Second):
						t.Fatalf("np=%d: contributor still blocked after poison", np)
					}
				}
			})
		}
	}
}

// TestPoisonBoundCompleteEpisodeWorks: a bound but unpoisoned episode
// combines normally.
func TestPoisonBoundCompleteEpisodeWorks(t *testing.T) {
	for _, k := range Kinds() {
		c := poison.NewCell()
		const np = 5
		ep := New[int](k, np, func(a, b int) int { return a + b }, Config[int]{Poison: c})
		got := make(chan int, np)
		for pid := 0; pid < np; pid++ {
			go func(pid int) { got <- ep.Do(pid, pid) }(pid)
		}
		for i := 0; i < np; i++ {
			if v := <-got; v != 10 {
				t.Fatalf("%s: Do returned %d, want 10", k, v)
			}
		}
	}
}
