// A sequential DO on every tier: it runs by its trip count, so a range
// ending at either end of INTEGER ends, and it polls the poison cell, so
// a deadline ends a long one.
package repro_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/forcelang"
	"repro/internal/interp"
)

// seqDoRangeEnds runs two loops of two trips each whose last index is
// the largest and the smallest INTEGER: stepping past either wraps.
const seqDoRangeEnds = `Force ENDS of NP ident ME
Private Integer I, N, M
End Declarations
N = 0
DO I = 9223372036854775806, 9223372036854775807
  N = N + 1
End DO
M = 0
DO I = -9223372036854775807, -9223372036854775807 - 1, -1
  M = M + 1
End DO
IF (ME .EQ. 0) THEN
  Print N, M, I
END IF
Join
`

// seqDoLong is a sequential DO of 3·10⁹ trips: minutes on every tier.
const seqDoLong = `Force LONG of NP ident ME
Private Integer I, N
End Declarations
N = 0
DO I = 1, 3000000000
  N = N + 1
End DO
Print N
Join
`

// seqDoPeerFault divides by zero in process 1 while process 0 runs a
// sequential DO of 3·10¹¹ trips.
const seqDoPeerFault = `Force PEER of NP ident ME
Private Integer I, N, Z
End Declarations
N = 0
Z = 0
IF (ME .EQ. 1) THEN
  N = 1 / Z
ELSE
  DO I = 1, 300000000000
    N = N + 1
  End DO
END IF
Join
`

// seqDoTier is one way to run a program: an interpreter engine or the
// native binary, bounded by ctx.
type seqDoTier struct {
	name string
	run  func(ctx context.Context, out *strings.Builder) error
}

func seqDoTiers(t *testing.T, prog *forcelang.Program, np int) []seqDoTier {
	t.Helper()
	var tiers []seqDoTier
	for _, mode := range interp.ExecModes() {
		mode := mode
		tiers = append(tiers, seqDoTier{mode.String(), func(ctx context.Context, out *strings.Builder) error {
			return interp.Run(prog, interp.Config{NP: np, Stdout: out, Exec: mode, Context: ctx})
		}})
	}
	if !testing.Short() {
		entry, err := aotTestCache(t).Ensure(prog, aot.Options{})
		if err != nil {
			t.Fatalf("aot build: %v", err)
		}
		tiers = append(tiers, seqDoTier{"aot", func(ctx context.Context, out *strings.Builder) error {
			return entry.RunContext(ctx, np, out)
		}})
	}
	return tiers
}

// runBounded runs one tier in its own goroutine and gives up after
// limit, so a loop that never ends fails the test instead of hanging it.
func runBounded(t *testing.T, tier seqDoTier, ctx context.Context, limit time.Duration) (string, error) {
	t.Helper()
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		var out strings.Builder
		err := tier.run(ctx, &out)
		done <- result{out.String(), err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(limit):
		t.Fatalf("%s: still running after %v", tier.name, limit)
		return "", nil
	}
}

// TestSeqDoRangeEnds: a DO whose last index is the largest or the
// smallest INTEGER runs its two trips and ends, leaving the index at the
// last value it took, on every tier.
func TestSeqDoRangeEnds(t *testing.T) {
	prog := forcelang.MustParse(seqDoRangeEnds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a native child outliving a failed check is killed
	for _, tier := range seqDoTiers(t, prog, 2) {
		out, err := runBounded(t, tier, ctx, 20*time.Second)
		if want := "2 2 -9223372036854775808\n"; err != nil || out != want {
			t.Errorf("%s: printed %q (%v), want %q", tier.name, out, err, want)
		}
	}
}

// TestSeqDoEndsWhenPoisoned: a poisoned force does not wait out a long
// sequential DO on any tier — a deadline of 1 s ends one of 3·10⁹ trips
// (the native tier's child is killed at it), and a peer's fault ends one
// of 3·10¹¹ (the native binary polls, as the interpreters do), each
// within a few seconds.
func TestSeqDoEndsWhenPoisoned(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		deadline  time.Duration
		want      string
	}{
		{"deadline", seqDoLong, time.Second, context.DeadlineExceeded.Error()},
		{"peer-fault", seqDoPeerFault, time.Minute, "force runtime: line 7: integer division by zero"},
	} {
		for _, tier := range seqDoTiers(t, forcelang.MustParse(tc.src), 2) {
			ctx, cancel := context.WithTimeout(context.Background(), tc.deadline)
			defer cancel() // a native child outliving a failed check is killed
			start := time.Now()
			_, err := runBounded(t, tier, ctx, 30*time.Second)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: Run = %v, want %q", tc.name, tier.name, err, tc.want)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("%s %s: the loop ended after %v, want within a few seconds", tc.name, tier.name, elapsed)
			}
		}
	}
}
