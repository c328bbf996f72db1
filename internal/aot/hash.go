package aot

// hash.go — the content address of a compiled Force program: a sha256
// over the source text and the environment variables that change what
// go build makes of it.  The binary reports run-time errors and narrates
// its plan by source line, so two texts that differ at all — a blank
// line, a comment — are two programs here; the force size and the five
// runtime options are flags of the binary and never reach the key.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/forcelang"
)

// formatVersion invalidates the whole cache whenever the generated
// code's shape changes.  Bump it on any codegen change that alters the
// emitted Go for an unchanged program, and on any change of
// internal/forcert's behaviour.  (1: one closure call per DOALL
// index; 2: DOALLs as span loops, decisions read from internal/plan;
// 3: no prelude — run-time checks, intrinsics and Print formatting are
// imported from internal/forcert; 4: selfscheduled loops claim the
// planner's grant, a Barrier rides the closing collective before it;
// 5: every reduction is a FusedJoin, a reduction-less close a FusedClose;
// 6: the runtime options are flags of the binary, the key is the text;
// 7: same emitted Go, but the runtime a binary embeds gives a loop within
// one grant a fixed owner and the recorded plan says so; 8: a REAL
// operator over literals is computed at run time, through forcert.Real;
// 9: and an INTEGER one through forcert.Int, so it wraps as it does in
// the interpreters; 10: a sequential DO runs by its trip count
// (forcert.Do) and polls the poison cell every core.PoisonEvery trips;
// 11: same emitted Go, but the scheduler a binary embeds counts a DOALL
// range spanning more than 2^63 from its unsigned span, and the recorded
// plan names a statement no span runs as the language spells it;
// 12: an async scalar is an asyncvar.V field, not a core.AsyncCell;
// 13: a two-index DOALL counts its index pairs with sched.Pairs, which
// saturates instead of wrapping;
// 14: the checker places implicit conversions as REAL / INT nodes, which
// the planner costs, so a Selfsched DO over one may get another grant.)
const formatVersion = 14

// buildEnv names the environment variables the go build of an entry
// inherits that change the binary it makes: a binary built under
// GOFLAGS=-race must not be served to a plain run.
var buildEnv = []string{"GOFLAGS", "GOARCH", "GOAMD64", "GOEXPERIMENT", "CGO_ENABLED"}

// Key returns the hex cache key of prog: of the text it was parsed from
// and of the build environment, read without starting a process.
func Key(prog *forcelang.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "force aot format %d\n", formatVersion)
	env := make([]byte, 0, 128) // not a Fprintf per variable: every warm run computes the key
	for _, v := range buildEnv {
		env = append(append(append(append(env, v...), '='), os.Getenv(v)...), '\n')
	}
	h.Write(env)
	io.WriteString(h, prog.Source)
	return hex.EncodeToString(h.Sum(nil))
}
