package aot

// hash.go — the content address of a compiled Force program: a sha256
// over the source text, and nothing else.  The binary reports run-time
// errors and narrates its plan by source line, so two texts that differ
// at all — a blank line, a comment — are two programs here; the force
// size and the five runtime options are flags of the binary and never
// reach the key.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

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
// operator over literals is computed at run time, through forcert.Real.)
const formatVersion = 8

// Key returns the hex cache key of prog: of the text it was parsed from.
func Key(prog *forcelang.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "force aot format %d\n", formatVersion)
	io.WriteString(h, prog.Source)
	return hex.EncodeToString(h.Sum(nil))
}
