package aot

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forcelang"
)

const runSrc = `Force RUN of NP ident ME
Shared Integer S
End Declarations
Barrier
  S = 0
End Barrier
Critical L
  S = S + ME
End Critical
Barrier
  Print 'S =', S
End Barrier
Join
`

// run executes e at np and returns what it printed.
func run(e *Entry, np int) (string, error) {
	var sb strings.Builder
	err := e.RunContext(context.Background(), np, &sb)
	return sb.String(), err
}

// cached reports whether c holds a fresh entry for prog, counting nothing.
func cached(c *Cache, prog *forcelang.Program) bool {
	_, st := c.lookup(Key(prog))
	return st == lookupHit
}

func openTestCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEnsureRunAndWarmHit is the cache's whole life in one test: a cold
// Ensure builds once, the binary runs with interpreter-identical output
// at two force sizes (one entry serves both — the key is
// np-independent), and a warm Ensure is a pure hit with zero rebuilds.
func TestEnsureRunAndWarmHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(runSrc)

	e, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 1 || s.Misses != 1 {
		t.Fatalf("cold stats: %v", s)
	}
	// np=1: S = 0; np=4: S = 0+1+2+3 = 6.
	for np, want := range map[int]string{1: "S = 0\n", 4: "S = 6\n"} {
		if got, err := run(e, np); err != nil || got != want {
			t.Errorf("np=%d: got %q, %v; want %q", np, got, err, want)
		}
	}

	if _, err := c.Ensure(prog, Options{}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Builds != 1 {
		t.Errorf("warm Ensure rebuilt: %v", s)
	}
	if s.Hits != 1 {
		t.Errorf("warm Ensure not a hit: %v", s)
	}
}

// TestCorruptionRecovery truncates the cached binary: the next lookup
// must classify the entry stale (size disagrees with meta.json) and
// rebuild rather than execute the stump.
func TestCorruptionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(runSrc)
	e, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(e.Bin, 16); err != nil {
		t.Fatal(err)
	}

	e2, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Stale != 1 || s.Builds != 2 {
		t.Fatalf("truncated entry not rebuilt: %v", s)
	}
	if got, err := run(e2, 1); err != nil || got != "S = 0\n" {
		t.Errorf("rebuilt binary output %q, %v", got, err)
	}

	// A deleted binary with surviving metadata is stale too, not a miss.
	if err := os.Remove(e2.Bin); err != nil {
		t.Fatal(err)
	}
	if _, st := c.lookup(Key(prog)); st != lookupStale {
		t.Errorf("missing binary classified %d, want stale", st)
	}
}

// TestRuntimeErrorRelay: a runtime failure inside the cached binary
// comes back as the interpreter's exact "force runtime: line N: ..."
// message.
func TestRuntimeErrorRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(`Force ERR of NP ident ME
Shared Real A(4)
End Declarations
Barrier
  A(5) = 1.0
End Barrier
Join
`)
	e, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(e, 1)
	if err == nil {
		t.Fatal("no error from out-of-range subscript")
	}
	want := "force runtime: line 5: subscript 1 of A out of range: 5 not in [1,4]"
	if err.Error() != want {
		t.Errorf("error %q, want %q", err.Error(), want)
	}
}

// TestOpenEnvDefault: Open("") honours FORCE_CACHE.
func TestOpenEnvDefault(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cachehome")
	t.Setenv(EnvCacheDir, dir)
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", c.Dir(), dir)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Errorf("cache dir not created: %v", err)
	}
}

// TestSingleFlight: concurrent cold Ensures of one program produce one
// build.
func TestSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(runSrc)
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Ensure(prog, Options{})
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("concurrent Ensure built %d times: %v", s.Builds, s)
	}
}

// TestStaleEntryNotServed: an entry built from other code — under
// another recipe, as after an edit of the planner, the emitter or the
// runtime a binary links, or by another toolchain — lives under a key no
// current lookup computes, so it is never served: Ensure builds one
// fresh entry beside them, with the plan the current emitter read.
func TestStaleEntryNotServed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(runSrc)
	if got := key(prog, recipe, runtime.Version()); got != Key(prog) {
		t.Fatalf("key(recipe, runtime.Version()) = %s, Key = %s: the planted keys would differ for another reason", got, Key(prog))
	}
	staleKeys := map[string]string{
		"another recipe":    key(prog, strings.Repeat("0", 64)+"\n", runtime.Version()),
		"another toolchain": key(prog, recipe, "go1.0"),
	}
	// Plant complete, self-consistent entries whose "binary" would fail
	// loudly if anything executed it.
	for why, staleKey := range staleKeys {
		if staleKey == Key(prog) {
			t.Fatalf("%s computes the current key", why)
		}
		dir := c.entryDir(staleKey)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		stale := []byte("#!/bin/sh\necho served the entry of " + why + " >&2\nexit 3\n")
		if err := os.WriteFile(filepath.Join(dir, "force.bin"), stale, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := `{"program":"RUN","key":"` + staleKey + `","bin_size":` + strconv.Itoa(len(stale)) + `}`
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if e, st := c.lookup(staleKey); st != lookupHit || e == nil {
			t.Fatalf("the planted entry of %s is not well-formed (state %d): the test would pass vacuously", why, st)
		}
	}

	if _, st := c.lookup(Key(prog)); st != lookupMiss {
		t.Fatal("a stale entry satisfied a current lookup")
	}
	e, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("stats after Ensure: %v, want exactly one build", s)
	}
	for why, staleKey := range staleKeys {
		if e.Key == staleKey || e.Dir == c.entryDir(staleKey) {
			t.Errorf("Ensure served the entry of %s, %s", why, e.Dir)
		}
	}
	if got, err := run(e, 2); err != nil || got != "S = 1\n" {
		t.Errorf("rebuilt entry: output %q, err %v", got, err)
	}
}

// TestEntryPlan: the DOALL decisions the binary was emitted from are
// kept beside it and read back on demand.
func TestEntryPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	e, err := c.Ensure(forcelang.MustParse(`Force PLAN of NP ident ME
Shared Real A(64)
Private Integer I
End Declarations
Presched DO I = 1, 64
  A(I) = REAL(I)
End Presched DO
Join
`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Plan(); len(got) != 2 || got[0] != "line 5: DOALL partition=block" ||
		got[1] != "line 5: DOALL span-checked 1 of 1 element references, block-evaluated" {
		t.Errorf("plan = %q", got)
	}
	none, err := c.Ensure(forcelang.MustParse(runSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := none.Plan(); len(got) != 0 {
		t.Errorf("a program with no DOALL has plan %q", got)
	}
}
