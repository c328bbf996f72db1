package poison_test

import (
	"testing"
	"time"

	"repro/internal/asyncvar"
	"repro/internal/poison"
)

// An operation on the word asynchronous variable whose partner is already
// there — Produce into an empty cell, Consume or Copy from a full one —
// completes on its first compare-and-swap: it never reaches Cell.Done,
// which takes the force-wide cell mutex every operation once took.  The
// test holds that mutex throughout; a call to Done would wait for it.
func TestWordVarUnblockedOpsSkipDone(t *testing.T) {
	c := poison.NewCell()
	v := asyncvar.New[int](asyncvar.Word, nil)
	asyncvar.SetPoison(v, c)
	release := c.Hold()
	defer release()
	const rounds = 1000
	sum := make(chan int, 1)
	go func() {
		s := 0
		for i := 1; i <= rounds; i++ {
			v.Produce(i)
			s += v.Copy()
			s += v.Consume()
		}
		sum <- s
	}()
	select {
	case got := <-sum:
		if want := rounds * (rounds + 1); got != want {
			t.Errorf("transferred %d, want %d", got, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("an unblocked Produce / Copy / Consume is waiting for the poison cell's mutex: it called Cell.Done")
	}
}
