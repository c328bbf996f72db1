package aot

// hash.go — the content address of a compiled Force program: a sha256
// over the code that builds its binary, the toolchain, the environment
// variables that change what go build makes of it, and the source text.
// The code is the recipe: the digest of go.mod and of every non-test
// source file of every package of this module that internal/aot links —
// the front end, the planner, the emitter and the runtime the generated
// program imports — pinned in recipe.sum by TestRecipeCurrent, so a
// lookup hashes one line instead of the files and starts no process.
// The binary reports run-time errors and narrates its plan by source
// line, so two texts that differ at all — a blank line, a comment — are
// two programs here; the force size and the four runtime options are
// flags of the binary and never reach the key.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"io"
	"os"
	"runtime"

	"repro/internal/forcelang"
)

// recipe is the digest of the sources an entry's binary is built from,
// one line.  After an edit of any of them, rewrite it with
// `go test ./internal/aot -run TestRecipeCurrent -update`.
//
//go:embed recipe.sum
var recipe string

// buildEnv names the environment variables the go build of an entry
// inherits that change the binary it makes: a binary built under
// GOFLAGS=-race must not be served to a plain run, nor one built by the
// toolchain GOTOOLCHAIN picks to a run under another.
var buildEnv = []string{"GOFLAGS", "GOARCH", "GOAMD64", "GOEXPERIMENT", "CGO_ENABLED", "GOTOOLCHAIN"}

// Key returns the hex cache key of prog: of the text it was parsed from,
// of the recipe and the toolchain this package was built with, and of
// the build environment, read without starting a process.
func Key(prog *forcelang.Program) string { return key(prog, recipe, runtime.Version()) }

func key(prog *forcelang.Program, recipe, toolchain string) string {
	h := sha256.New()
	env := make([]byte, 0, 256) // not a Fprintf per variable: every warm run computes the key
	env = append(append(append(env, recipe...), toolchain...), '\n')
	for _, v := range buildEnv {
		env = append(append(append(append(env, v...), '='), os.Getenv(v)...), '\n')
	}
	h.Write(env)
	io.WriteString(h, prog.Source)
	return hex.EncodeToString(h.Sum(nil))
}
