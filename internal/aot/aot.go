// Package aot is the ahead-of-time native tier: it hashes a Force
// program's source text, emits Go through internal/codegen into a
// content-addressed cache directory, builds it once with the ordinary Go
// toolchain, and hands repeat traffic a cached native binary — the
// paper's pipeline (§4.3) with a compiler behind it: one executable per
// Force program, the size of the force left to run time.
//
// Cache layout ($FORCE_CACHE or ~/.cache/force):
//
//	<key>/main.go    the generated Go source (for inspection/debugging)
//	<key>/force.bin  the built binary (runs with -np N and, when they are
//	                 not the defaults, -barrier -reduce -selfsched -askfor -chunk)
//	<key>/meta.json  program name, binary size (staleness check)
//	<key>/plan       the DOALL decisions the binary was emitted from, one per line
//	<key>/lock       cross-process build lock (flock)
//
// The key is the text and only the text: the force size and the five
// runtime options (Options) are flags of the generated binary, so one
// cache entry serves every configuration, while an edited comment is a
// new entry — the price of a binary whose error and plan lines are its
// own file's.  Builds are single-flight within a process (per-key mutex)
// and across processes (flock), and a truncated or missing binary is
// classified stale and rebuilt rather than executed.
package aot

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/forcelang"
)

// EnvCacheDir names the environment variable overriding the cache
// directory.
const EnvCacheDir = "FORCE_CACHE"

// ErrNoToolchain reports that the Go toolchain is unavailable; callers
// fall back to the interpreter.
var ErrNoToolchain = errors.New("aot: go toolchain not found")

// Options is the runtime configuration an entry runs its binary under:
// the arguments RunContext passes beside -np.  It reaches neither the key
// nor the generated source.
type Options = core.Variants

// Stats is a snapshot of the cache's accounting.
type Stats struct {
	Hits      int64         // lookups that found a fresh entry
	Misses    int64         // lookups with no entry at all
	Stale     int64         // lookups that found a corrupt/truncated entry
	Builds    int64         // go build invocations actually run
	BuildTime time.Duration // total wall time spent in go build
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stale=%d builds=%d build_time=%s",
		s.Hits, s.Misses, s.Stale, s.Builds, s.BuildTime.Round(time.Millisecond))
}

// Cache is a content-addressed store of compiled Force programs.
type Cache struct {
	dir string

	mu     sync.Mutex
	flight map[string]*sync.Mutex

	hits, misses, stale, builds atomic.Int64
	buildNanos                  atomic.Int64
}

// Open opens (creating if needed) the cache at dir; an empty dir means
// $FORCE_CACHE, then ~/.cache/force.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		dir = os.Getenv(EnvCacheDir)
	}
	if dir == "" {
		home, err := os.UserHomeDir()
		if err != nil {
			return nil, fmt.Errorf("aot: no cache dir: %w (set %s)", err, EnvCacheDir)
		}
		dir = filepath.Join(home, ".cache", "force")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	return &Cache{dir: dir, flight: map[string]*sync.Mutex{}}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the cache's accounting.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Builds:    c.builds.Load(),
		BuildTime: time.Duration(c.buildNanos.Load()),
	}
}

// Meta is the per-entry metadata persisted as meta.json.
type Meta struct {
	Program     string `json:"program"`
	Key         string `json:"key"`
	BinSize     int64  `json:"bin_size"`
	BuiltAt     string `json:"built_at"`
	BuildMillis int64  `json:"build_millis"`
}

// Entry is one cached compiled program, as one Ensure returned it.
type Entry struct {
	Key  string
	Dir  string
	Bin  string
	Meta Meta

	opts Options // what the Ensure asked for: RunContext's child arguments
}

func (c *Cache) entryDir(key string) string { return filepath.Join(c.dir, key) }

// Plan returns the DOALL decisions the entry's binary was emitted from
// (codegen.Lower): the lines forcerun -v narrates as "fuse:" on every
// tier.  It is read on demand — a warm lookup never touches it.
func (e *Entry) Plan() []string {
	data, err := os.ReadFile(filepath.Join(e.Dir, "plan"))
	if err != nil {
		return nil // narration only: an entry without it still runs
	}
	return strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
}

type lookupState int

const (
	lookupMiss lookupState = iota
	lookupHit
	lookupStale
)

// lookup classifies the entry for key without touching the counters:
// hit (meta and binary present and consistent), miss (neither present),
// or stale (present but corrupt — unparsable meta, missing binary, or a
// binary whose size disagrees with meta, i.e. truncated mid-write).
func (c *Cache) lookup(key string) (*Entry, lookupState) {
	dir := c.entryDir(key)
	bin := filepath.Join(dir, "force.bin")
	metaBytes, metaErr := os.ReadFile(filepath.Join(dir, "meta.json"))
	st, binErr := os.Stat(bin)
	if metaErr != nil && binErr != nil {
		return nil, lookupMiss
	}
	if metaErr != nil || binErr != nil {
		return nil, lookupStale
	}
	var m Meta
	if err := json.Unmarshal(metaBytes, &m); err != nil || m.BinSize != st.Size() {
		return nil, lookupStale
	}
	return &Entry{Key: key, Dir: dir, Bin: bin, Meta: m}, lookupHit
}

// lookupCounted is lookup plus hit/miss/stale accounting.
func (c *Cache) lookupCounted(key string) (*Entry, lookupState) {
	e, st := c.lookup(key)
	switch st {
	case lookupHit:
		c.hits.Add(1)
	case lookupMiss:
		c.misses.Add(1)
	default:
		c.stale.Add(1)
	}
	return e, st
}

// Ensure returns a fresh entry for prog that runs under opts, building
// the binary if absent or stale.  Builds are single-flight: concurrent
// Ensure calls for the same key (in this process or another) wait for
// one build.
func (c *Cache) Ensure(prog *forcelang.Program, opts Options) (*Entry, error) {
	return c.EnsureContext(context.Background(), prog, opts)
}

// EnsureContext is Ensure under an external cancellation context: the
// `go build` cold path is bounded by ctx (a canceled build kills the
// toolchain invocation and returns ctx's error; the entry stays absent
// and the next Ensure rebuilds).  A warm lookup never blocks, so ctx is
// only consulted on the cold path.
func (c *Cache) EnsureContext(ctx context.Context, prog *forcelang.Program, opts Options) (*Entry, error) {
	e, err := c.ensure(ctx, prog)
	if err != nil {
		return nil, err
	}
	e.opts = opts
	return e, nil
}

func (c *Cache) ensure(ctx context.Context, prog *forcelang.Program) (*Entry, error) {
	if prog.Source == "" {
		// A tree that did not come from forcelang.Parse has no text to key
		// by, and every such tree would share one entry.
		return nil, errors.New("aot: program has no source text (not parsed by forcelang.Parse)")
	}
	key := Key(prog)
	if e, st := c.lookupCounted(key); st == lookupHit {
		return e, nil
	}
	if err := faultinject.FireErr(faultinject.AOTBuild, nil); err != nil {
		return nil, fmt.Errorf("aot: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	unlock, err := c.lockKey(key)
	if err != nil {
		return nil, err
	}
	defer unlock()
	// A peer may have published the entry while we waited on the lock.
	if e, st := c.lookup(key); st == lookupHit {
		return e, nil
	}
	start := time.Now()
	e, err := c.build(ctx, key, prog)
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	c.builds.Add(1)
	c.buildNanos.Add(int64(d))
	return e, nil
}

// lockKey serializes builders of key: a per-key mutex within the
// process, an flock on <entry>/lock across processes.
func (c *Cache) lockKey(key string) (func(), error) {
	c.mu.Lock()
	m, ok := c.flight[key]
	if !ok {
		m = &sync.Mutex{}
		c.flight[key] = m
	}
	c.mu.Unlock()
	m.Lock()
	dir := c.entryDir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.Unlock()
		return nil, fmt.Errorf("aot: %w", err)
	}
	funlock, err := lockFile(filepath.Join(dir, "lock"))
	if err != nil {
		m.Unlock()
		return nil, fmt.Errorf("aot: build lock: %w", err)
	}
	return func() {
		funlock()
		m.Unlock()
	}, nil
}

// args is the child's argument list: the force size, then whichever
// options are not the binary's own defaults.
func (e *Entry) args(np int) []string {
	return append([]string{"-np", strconv.Itoa(np)}, e.opts.Args()...)
}

// testChildStarted, when non-nil, receives the child's pid right after
// the exec starts — the robustness tests' hook for killing the child
// out from under the parent.
var testChildStarted func(pid int)

// RunContext executes the cached binary at np, under the options the
// entry was ensured with and an external cancellation context, streaming
// program output to stdout.
//
// A generated-driver runtime failure (exit 1 with the interpreter's
// "force runtime: line N: ..." protocol on stderr) comes back as that
// exact error, so forcerun's aot tier reports byte-identical messages
// to the interpreter tiers.
//
// Cancellation is the subprocess analogue of poisoning the in-process
// force: when ctx is canceled or its deadline passes, the child's WHOLE
// process group is SIGKILLed (the child runs as its own group leader,
// so helpers it spawned die with it rather than leaking as orphans),
// the child is reaped by Wait, and the context's error — typically
// context.DeadlineExceeded — is relayed to the caller.  The cache entry
// is untouched: a killed run does not invalidate the binary.
func (e *Entry) RunContext(ctx context.Context, np int, stdout io.Writer) error {
	if err := faultinject.FireErr(faultinject.AOTExec, nil); err != nil {
		return fmt.Errorf("aot: %s: %w", filepath.Base(e.Bin), err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cmd := exec.Command(e.Bin, e.args(np)...)
	cmd.Stdout = stdout
	var errb bytes.Buffer
	cmd.Stderr = &errb
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("aot: %s: %w", filepath.Base(e.Bin), err)
	}
	if testChildStarted != nil {
		testChildStarted(cmd.Process.Pid)
	}
	// The cancellation watcher: on ctx expiry, kill the child's process
	// group (and the child itself, covering platforms without process
	// groups); Wait below then reaps it, so no zombie survives.
	waitDone := make(chan struct{})
	var watcher sync.WaitGroup
	if ctx.Done() != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				killProcGroup(cmd.Process.Pid)
				_ = cmd.Process.Kill()
			case <-waitDone:
			}
		}()
	}
	err := cmd.Wait()
	close(waitDone)
	watcher.Wait()
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The exit status of a group-killed child is noise; the caller
		// asked for the cancellation, so relay its error.
		return ctxErr
	}
	msg := strings.TrimSpace(errb.String())
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 1 && strings.HasPrefix(msg, "force runtime") {
		return errors.New(msg)
	}
	if msg != "" {
		return fmt.Errorf("aot: %s: %w: %s", filepath.Base(e.Bin), err, msg)
	}
	return fmt.Errorf("aot: %s: %w", filepath.Base(e.Bin), err)
}
