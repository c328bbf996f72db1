package aot

import (
	"context"
	"os"
	"path/filepath"
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

// TestOldFormatEntryNotServed: an entry built by an earlier emitter — the
// per-iteration one (format version 1), the span emitter with its
// run-time helpers in a prelude (version 2), the one before grants and
// ridden barriers (version 3), the one with a second reduction lowering
// (version 4), the one that baked the runtime options in and keyed by
// the AST (version 5), the one whose plan predates the fixed owner of a
// loop within one grant (version 6), the one that left Go to fold REAL
// arithmetic on literals (version 7), the one that did so for INTEGER
// arithmetic (version 8), the one whose sequential DO tested its index
// against the end (version 9), the one whose scheduler counted a huge
// DOALL range signed (version 10) or the one that named an async scalar
// core.AsyncCell (version 11) — lives under a key no current lookup
// computes, so
// it is never served: Ensure builds a fresh entry beside them, with the
// plan the new emitter read recorded.
func TestOldFormatEntryNotServed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(runSrc)
	// The keys runSrc had while formatVersion was 1 to 14 (Key at the
	// commits before the span emitter, before internal/forcert, before the
	// planner's grants, before the one closing collective, before the
	// text key, before the fixed owner, before forcert.Real, before
	// INTEGER constant arithmetic went through forcert.Int, before a
	// sequential DO ran by its trip count, before a DOALL range was
	// counted from its unsigned span, before core.AsyncCell went and,
	// with the build environment unset, before index pairs saturated,
	// before the checker placed implicit conversions and before the span
	// form of a block-dealt DOALL).
	oldKeys := map[int]string{
		1:  "3e7cb792cb50eba21a12dbd6f7dfbac0fe6160673ff821e4e6d5c4a3c6a9e091",
		2:  "025813ad5e7c9519ff2bcec48dab2e9a1f45d40c120a952b92beab2bdd560136",
		3:  "83d032927fc0d76e9c9ed4500bc4245de432bfc0cd69571a56c45941d08ec470",
		4:  "4fcc29f76b3d6e63f55b390e2f0d102291ee84fa92efdfbff54f1973d275dd79",
		5:  "7e2e7ad8a9ba4e612f68a54b96e3b3d82dce3d0132074c9611c473cbf9b159f9",
		6:  "dfa8e0aadeca348197ae6f83ceed2fe20d2073bde633a5a1bc941972cce447b6",
		7:  "ae1a3bf0f93516270e83105c53e9df3684659337f0d352eddc51062b515c85cc",
		8:  "b8bcc05534e02b300dcf4ae4f1e4aacd838f5da53f9c303e4e6b3fd5f6b66988",
		9:  "5ec2a5b8395dc331edae4f991416d89a1c10081a368352f6380536f9ff140751",
		10: "8195505f235c08047402fadd7d63be861a45194240ef44457235109491ace17e",
		11: "3ffe8eb7e9e48cf24e5e3654add2c6d6040450a95acc87216d9a1ff74f2f75e3",
		12: "3cef2eefcf9916f9a0399549090c721b439189acc221e7b273fc737fd07f72ca",
		13: "0c7cd2be9ca786f929deb820963bf95781a221fcf1d585b67c397da42433295a",
		14: "663026763a236053ef08b636ea77b87a91f2d1b4cdf864083093e9cf1ed60ed3",
	}
	// Plant complete, self-consistent old entries whose "binary" would
	// fail loudly if anything executed it.
	for v, oldKey := range oldKeys {
		if oldKey == Key(prog) {
			t.Fatalf("format version %d still computes the current key", v)
		}
		oldDir := c.entryDir(oldKey)
		if err := os.MkdirAll(oldDir, 0o755); err != nil {
			t.Fatal(err)
		}
		stale := []byte("#!/bin/sh\necho served a version-" + strconv.Itoa(v) + " entry >&2\nexit 3\n")
		if err := os.WriteFile(filepath.Join(oldDir, "force.bin"), stale, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := `{"program":"RUN","key":"` + oldKey + `","bin_size":` + strconv.Itoa(len(stale)) + `}`
		if err := os.WriteFile(filepath.Join(oldDir, "meta.json"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if old, st := c.lookup(oldKey); st != lookupHit || old == nil {
			t.Fatalf("planted version-%d entry is not well-formed (state %d): the test would pass vacuously", v, st)
		}
	}

	if _, st := c.lookup(Key(prog)); st != lookupMiss {
		t.Fatal("an old-format entry satisfied a current lookup")
	}
	e, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("stats after Ensure: %v, want exactly one build", s)
	}
	for v, oldKey := range oldKeys {
		if e.Key == oldKey || e.Dir == c.entryDir(oldKey) {
			t.Errorf("Ensure served the version-%d entry %s", v, e.Dir)
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
