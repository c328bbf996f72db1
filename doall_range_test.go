// A DOALL whose ordinal space reaches MaxInt on every tier: the cyclic
// deal's last span and a two-index space too large to count both still
// run their first iterations.
package repro_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/forcelang"
)

// wideCyclic deals 1.8·10¹⁹ trips cyclically (P = ME keeps the cyclic
// deal); the first, process 0's, divides by zero.
const wideCyclic = `Force WIDE of NP ident ME
Private Integer I, P, X
End Declarations
P = ME
Presched DO I = -9000000000000000000, 9000000000000000000
  X = P + 1 / (I + 9000000000000000000)
End Presched DO
Join
`

// widePairs is a two-index space of 2⁶⁴ pairs; the second, (1, 2),
// divides by zero.
const widePairs = `Force PAIRS of NP ident ME
Private Integer I, J, X
End Declarations
Presched DO I = 1, 4294967296 also J = 1, 4294967296
  X = 1 / (J - 2)
End Presched DO
Print 'done'
Join
`

// raisesEverywhere runs src on every tier at each np, each run bounded by
// a deadline, and wants the error want from all of them.
func raisesEverywhere(t *testing.T, src, want string, nps ...int) {
	t.Helper()
	prog := forcelang.MustParse(src)
	for _, np := range nps {
		for _, tier := range seqDoTiers(t, prog, np) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel() // a native child outliving a failed check is killed
			out, err := runBounded(t, tier, ctx, 30*time.Second)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("np %d on %s: printed %q, Run = %v; want %q", np, tier.name, out, err, want)
			}
		}
	}
}

// TestWideCyclicSpanRaises: a range wider than MaxInt deals process 0 the
// span [0, MaxInt) at stride np, whose trip count must not wrap — when it
// did, process 0 ran nothing and its peers ran to the deadline.
func TestWideCyclicSpanRaises(t *testing.T) {
	raisesEverywhere(t, wideCyclic, "force runtime: line 6: integer division by zero", 2, 3)
}

// TestWidePairSpaceRaises: a space of more than MaxInt index pairs runs
// its first MaxInt, not a wrapped product's — 2⁶⁴ pairs wrapped to none,
// and the loop ran no iteration.
func TestWidePairSpaceRaises(t *testing.T) {
	raisesEverywhere(t, widePairs, "force runtime: line 5: integer division by zero", 2)
}
