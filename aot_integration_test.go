// AOT-tier acceptance: every program of the shared corpus
// (internal/corpus) must behave byte-identically — output and runtime
// errors — when executed as a cached native binary (internal/aot) and
// when interpreted, across all three interpreter engines.  This is the
// tier's contract: promotion to native code is a pure performance
// decision, never a semantics change.
package repro_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/barrier"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/vet"
)

var update = flag.Bool("update", false, "rewrite testdata/narration.golden, testdata/vet.golden and testdata/expand.sum")

// ownedPrograms returns the source of every program the repository owns,
// by name: each corpus program as corpus.FAMILY/NAME and every .force
// file under examples/, testdata/ and benchmark/programs/ by its path.
func ownedPrograms(t *testing.T) map[string]string {
	t.Helper()
	sources := map[string]string{}
	for fam, progs := range map[string][]corpus.Program{"Equiv": corpus.Equiv, "RuntimeErrors": corpus.RuntimeErrors,
		"NonUniform": corpus.NonUniform, "Chunk": corpus.Chunk, "Fusion": corpus.Fusion,
		"Reductions": corpus.Reductions, "FusionFaults": corpus.FusionFaults} {
		for _, p := range progs {
			name := "corpus." + fam + "/" + p.Name
			if _, dup := sources[name]; dup {
				t.Fatalf("two corpus programs named %s", name)
			}
			sources[name] = p.Src
		}
	}
	for _, dir := range []string{"examples", "testdata", "benchmark/programs"} {
		err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
			if err != nil || filepath.Ext(path) != ".force" {
				return err
			}
			text, err := os.ReadFile(path)
			sources[filepath.ToSlash(path)] = string(text)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sources
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Split(got, "\n"), strings.Split(string(text), "\n"); !slices.Equal(g, w) {
		k := 0
		for k < len(g)-1 && k < len(w)-1 && g[k] == w[k] {
			k++
		}
		t.Errorf("output differs from %s at line %d (rerun with -update and review):\n got %q\nwant %q", path, k+1, g[k], w[k])
	}
}

// aotCache is one cache shared by the whole parity sweep, so each
// corpus program builds exactly once even though several tests (and
// several np values) execute it.  $FORCE_CACHE, when set, selects the
// store (CI uses this to assert warm-rerun behaviour across separate
// `go test` invocations); otherwise the sweep gets a throwaway dir,
// which TestMain removes.
var aotCache = sync.OnceValues(func() (*aot.Cache, error) {
	dir := os.Getenv(aot.EnvCacheDir)
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "force-aot-test-")
		if err != nil {
			return nil, err
		}
		aotTempDir = dir
	}
	return aot.Open(dir)
})

// aotTempDir is the throwaway store aotCache made ("" when $FORCE_CACHE
// named the store, or no test opened one).
var aotTempDir string

// TestMain removes the throwaway aot store after the tests: each run
// builds a few hundred MB of native binaries into it.  A $FORCE_CACHE
// store is never removed.
func TestMain(m *testing.M) {
	code := m.Run()
	if aotTempDir != "" {
		os.RemoveAll(aotTempDir)
	}
	os.Exit(code)
}

func aotTestCache(t *testing.T) *aot.Cache {
	t.Helper()
	c, err := aotCache()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func aotSortedLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// aotRun builds (or reuses) the shared cache's entry for prog and runs it
// at np under the default options, returning output and error.
func aotRun(t *testing.T, prog *forcelang.Program, np int) (string, error) {
	t.Helper()
	return aotRunWith(t, aotTestCache(t), prog, np, aot.Options{})
}

// aotRunWith is aotRun through cache, the binary run under opts.
func aotRunWith(t *testing.T, cache *aot.Cache, prog *forcelang.Program, np int, opts aot.Options) (string, error) {
	t.Helper()
	entry, err := cache.Ensure(prog, opts)
	if err != nil {
		t.Fatalf("aot build: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var sb strings.Builder
	err = entry.RunContext(ctx, np, &sb)
	return sb.String(), err
}

// interpRun executes prog under one interpreter engine.
func interpRun(t *testing.T, prog *forcelang.Program, np int, mode interp.ExecMode) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := interp.Run(prog, interp.Config{NP: np, Stdout: &sb, Exec: mode})
	return sb.String(), err
}

// TestAOTParityEquivalence: the 15-program equivalence corpus produces
// identical (sorted-line) output from the native binary and from every
// interpreter engine, at each program's nominal np and at np=1.
func TestAOTParityEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.Equiv {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			nps := []int{tc.NP}
			if tc.NP != 1 {
				nps = append(nps, 1)
			}
			for _, np := range nps {
				native, err := aotRun(t, prog, np)
				if err != nil {
					t.Fatalf("np=%d aot: %v", np, err)
				}
				for _, mode := range interp.ExecModes() {
					ref, err := interpRun(t, prog, np, mode)
					if err != nil {
						t.Fatalf("np=%d %s: %v", np, mode, err)
					}
					got, want := aotSortedLines(native), aotSortedLines(ref)
					if len(got) != len(want) {
						t.Fatalf("np=%d: aot %d lines, %s %d lines\naot:\n%s\n%s:\n%s",
							np, len(got), mode, len(want), native, mode, ref)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("np=%d line %d: aot %q, %s %q", np, i, got[i], mode, want[i])
						}
					}
				}
			}
		})
	}
}

// TestNaNRelations: a REAL relation over a NaN is false, but for .NE.,
// as IEEE and Fortran have it, on the walker, on the compiled and chunked
// interpreter levels and (unless -short) on the aot tier — the lines
// corpus Equiv/nan-compares prints.
func TestNaNRelations(t *testing.T) {
	const want = "F T F F F F\nF T F F F F\nF T T F T F\n"
	i := slices.IndexFunc(corpus.Equiv, func(p corpus.Program) bool { return p.Name == "nan-compares" })
	if i < 0 {
		t.Fatal("no corpus program Equiv/nan-compares")
	}
	prog := forcelang.MustParse(corpus.Equiv[i].Src)
	for _, mode := range interp.ExecModes() {
		if got, err := interpRun(t, prog, 1, mode); err != nil || got != want {
			t.Errorf("%s: printed %q (%v), want %q", mode, got, err, want)
		}
	}
	if testing.Short() {
		return
	}
	if got, err := aotRun(t, prog, 1); err != nil || got != want {
		t.Errorf("aot: printed %q (%v), want %q", got, err, want)
	}
}

// TestAOTParityChunkMatrix: the chunk-tier corpus (strides, empty
// ranges, nested DOALLs, accumulators, fallbacks, grants) through the
// native tier at np ∈ {1, 2, 3, 8}.
func TestAOTParityChunkMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.Chunk {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			for _, np := range []int{1, 2, 3, 8} {
				native, err := aotRun(t, prog, np)
				if err != nil {
					t.Fatalf("np=%d aot: %v", np, err)
				}
				ref, err := interpRun(t, prog, np, interp.ExecTree)
				if err != nil {
					t.Fatalf("np=%d tree: %v", np, err)
				}
				got, want := aotSortedLines(native), aotSortedLines(ref)
				if len(got) != len(want) {
					t.Fatalf("np=%d: aot %d lines, tree %d lines\naot:\n%s\ntree:\n%s",
						np, len(got), len(want), native, ref)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("np=%d line %d: aot %q, tree %q", np, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestAOTParityFusion: the fusion corpus (internal/corpus.Fusion)
// through the native tier at np ∈ {1, 2, 3, 8}, against the tree walker
// and the chunk tier with the fusion pass on and off.  Fusion is an
// interpreter-side barrier optimization; the native tier must agree
// with every configuration of it.
func TestAOTParityFusion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.Fusion {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			for _, np := range []int{1, 2, 3, 8} {
				native, err := aotRun(t, prog, np)
				if err != nil {
					t.Fatalf("np=%d aot: %v", np, err)
				}
				got := aotSortedLines(native)
				for _, ref := range []struct {
					name string
					cfg  interp.Config
				}{
					{"tree", interp.Config{NP: np, Exec: interp.ExecTree}},
					{"chunked-fused", interp.Config{NP: np, Exec: interp.ExecChunked}},
					{"chunked-nofuse", interp.Config{NP: np, Exec: interp.ExecChunked, NoFuse: true}},
				} {
					var sb strings.Builder
					ref.cfg.Stdout = &sb
					if err := interp.Run(prog, ref.cfg); err != nil {
						t.Fatalf("np=%d %s: %v", np, ref.name, err)
					}
					want := aotSortedLines(sb.String())
					if len(got) != len(want) {
						t.Fatalf("np=%d: aot %d lines, %s %d lines\naot:\n%s\n%s:\n%s",
							np, len(got), ref.name, len(want), native, ref.name, sb.String())
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("np=%d line %d: aot %q, %s %q", np, i, got[i], ref.name, want[i])
						}
					}
				}
			}
		})
	}
}

// TestAOTParityReductions: the standalone-reduction corpus
// (internal/corpus.Reductions) through the native tier at np ∈ {1, 2, 3, 8}
// under both reduction strategies — one binary per program, the strategy
// is its -reduce flag — against the tree walker under the default one.
// The corpus's results are exact, so all of it is byte-identical.
func TestAOTParityReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	cache, err := aot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // after every parallel subtest
		if s := cache.Stats(); s.Builds != int64(len(corpus.Reductions)) {
			t.Errorf("%d programs under %d strategies: %v, want one build per program",
				len(corpus.Reductions), len(reduce.Kinds()), s)
		}
	})
	for _, tc := range corpus.Reductions {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			for _, np := range []int{1, 2, 3, 8} {
				tree, err := interpRun(t, prog, np, interp.ExecTree)
				if err != nil {
					t.Fatalf("np=%d tree: %v", np, err)
				}
				want := aotSortedLines(tree)
				for _, rk := range reduce.Kinds() {
					native, err := aotRunWith(t, cache, prog, np, aot.Options{Reduce: rk})
					if err != nil {
						t.Fatalf("np=%d aot -reduce %s: %v", np, rk, err)
					}
					got := aotSortedLines(native)
					if len(got) != len(want) {
						t.Fatalf("np=%d: aot -reduce %s %d lines, tree %d lines\naot:\n%s\ntree:\n%s",
							np, rk, len(got), len(want), native, tree)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("np=%d line %d: aot -reduce %s %q, tree %q", np, i, rk, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestAOTParityFusionFaults: a fault striking mid-region reports the
// same "force runtime: line N: ..." from the native binary and from the
// chunk tier with fusion on and off.
func TestAOTParityFusionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.FusionFaults {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			for _, np := range []int{1, 2, 3, 8} {
				_, aotErr := aotRun(t, prog, np)
				if aotErr == nil {
					t.Fatalf("np=%d aot: no error", np)
				}
				for _, noFuse := range []bool{false, true} {
					var sb strings.Builder
					err := interp.Run(prog, interp.Config{NP: np, Stdout: &sb, NoFuse: noFuse})
					if err == nil {
						t.Fatalf("np=%d noFuse=%v: no error", np, noFuse)
					}
					if err.Error() != aotErr.Error() {
						t.Errorf("np=%d noFuse=%v: messages diverge:\naot:    %q\ninterp: %q",
							np, noFuse, aotErr.Error(), err.Error())
					}
				}
			}
		})
	}
}

// TestAOTParityRuntimeErrors: uniform runtime failures (subscripts,
// division by zero, SQRT of a negative, zero steps, async bounds)
// produce byte-identical "force runtime: line N: ..." messages from
// the native binary and the interpreter.
func TestAOTParityRuntimeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.RuntimeErrors {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			_, aotErr := aotRun(t, prog, tc.NP)
			_, interpErr := interpRun(t, prog, tc.NP, interp.ExecTree)
			if aotErr == nil || interpErr == nil {
				t.Fatalf("missing error: aot=%v interp=%v", aotErr, interpErr)
			}
			if aotErr.Error() != interpErr.Error() {
				t.Errorf("messages diverge:\naot:    %q\ninterp: %q", aotErr.Error(), interpErr.Error())
			}
		})
	}
}

// TestAOTParityNonUniformAbort: a failure striking only some processes
// aborts the whole native force with the interpreter's exact message —
// the fault-containment protocol survives compilation.
func TestAOTParityNonUniformAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range corpus.NonUniform {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog := forcelang.MustParse(tc.Src)
			start := time.Now()
			_, aotErr := aotRun(t, prog, tc.NP)
			elapsed := time.Since(start)
			_, interpErr := interpRun(t, prog, tc.NP, interp.ExecTree)
			if aotErr == nil || interpErr == nil {
				t.Fatalf("missing error: aot=%v interp=%v", aotErr, interpErr)
			}
			if aotErr.Error() != interpErr.Error() {
				t.Errorf("messages diverge:\naot:    %q\ninterp: %q", aotErr.Error(), interpErr.Error())
			}
			if elapsed > time.Minute {
				t.Errorf("native abort took %v — containment latency regression", elapsed)
			}
		})
	}
}

// TestAOTWarmCacheNoRebuilds re-resolves every corpus program against
// the cache the sweep populated: each must be a pure hit, with zero
// builds through a fresh Cache handle.  (Run order is guaranteed by Go:
// this test shares the process with the sweeps above and executes under
// the same cache handle.)
func TestAOTWarmCacheNoRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	// Ensure at least one program is definitely present even if the
	// sweeps were filtered out.
	seed := forcelang.MustParse(corpus.Equiv[0].Src)
	if _, err := aotTestCache(t).Ensure(seed, aot.Options{}); err != nil {
		t.Fatal(err)
	}
	warm, err := aot.Open(aotTestCache(t).Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Ensure(seed, aot.Options{}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Builds != 0 || s.Hits != 1 {
		t.Errorf("warm cache missed or rebuilt a program the sweep built: %v", s)
	}
}

// TestAOTOneBinaryEveryConfiguration: the four runtime options are flags
// of the generated binary.  One program exercising everything they govern
// — a Selfsched DO, a selfscheduled Pcase, an Askfor, a GSUM, a Barrier
// section — runs through one cache under all 2×2×3×2 configurations (the
// chunk size set with the chunk discipline) on one build, printing what
// the interpreter prints under the same configuration; handed a spelling
// no axis accepts, the binary refuses the way forcerun does.
func TestAOTOneBinaryEveryConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary with the go toolchain")
	}
	prog := forcelang.MustParse(`Force MATRIX of NP ident ME
Shared Integer S, T, NODES, TOT
Private Integer I, W
End Declarations
Barrier
  S = 0
  T = 0
  NODES = 0
End Barrier
Selfsched DO I = 1, 100
  S = S + I
End Selfsched DO
Pcase Selfsched
Usect
  Critical C
    T = T + 1
  End Critical
Usect
  Critical C
    T = T + 10
  End Critical
Csect (S .GT. 0)
  Critical C
    T = T + 100
  End Critical
End Pcase
Askfor W = 1
  Critical C
    NODES = NODES + 1
  End Critical
  IF (W .LT. 5) THEN
    Put W + 1
    Put W + 1
  End IF
End Askfor
GSUM TOT = ME + 1
Barrier
  Print 'S =', S, 'T =', T, 'NODES =', NODES, 'TOT =', TOT
End Barrier
Join
`)
	cache, err := aot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const np = 3
	want := "S = 5050 T = 111 NODES = 31 TOT = 6\n"
	configs := 0
	for _, bk := range barrier.Kinds() {
		for _, rk := range reduce.Kinds() {
			for _, sk := range []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
				for _, pool := range engine.PoolKinds() {
					opts := aot.Options{Barrier: bk, Reduce: rk, Selfsched: sk, Askfor: pool}
					configs++
					var ref strings.Builder
					if err := interp.Run(prog, interp.Config{NP: np, Stdout: &ref, Barrier: bk, Reduce: rk,
						Selfsched: sk, Askfor: pool}); err != nil {
						t.Fatalf("%+v: interpreter: %v", opts, err)
					}
					native, err := aotRunWith(t, cache, prog, np, opts)
					if err != nil || native != ref.String() || native != want {
						t.Errorf("%+v: aot printed %q (%v), the interpreter %q, want %q", opts, native, err, ref.String(), want)
					}
				}
			}
		}
	}
	if s := cache.Stats(); configs != 24 || s.Builds != 1 {
		t.Errorf("%d configurations: %v, want 24 on one build", configs, s)
	}
	entry, err := cache.Ensure(prog, aot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(entry.Bin, "-np", "2", "-reduce", "tree").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Count(string(out), "\n") != 1 ||
		!strings.Contains(string(out), "critical") || !strings.Contains(string(out), "slots") {
		t.Errorf("binary -reduce tree: %v, output %q; want exit 2 and one line naming critical and slots", err, out)
	}
	// The chunk size is no setting: -chunk is an unknown flag.
	out, err = exec.Command(entry.Bin, "-np", "2", "-chunk", "8").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-chunk") {
		t.Errorf("binary -chunk 8: %v, output %q; want exit 2 for an unknown flag", err, out)
	}
}

// TestAOTLinesAreTheFilesOwn: two texts that differ only in layout are
// two programs to the cache, because the binary reports run-time errors
// and narrates its plan by source line.  A program whose planned DOALL
// faults, and the same text moved down behind blank lines and a comment,
// each report their own lines — the chunk tier's — cold and warm,
// whichever of the two was built first.
func TestAOTLinesAreTheFilesOwn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	const text = `Force SHIFT of NP ident ME
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I + 1) = REAL(I)
End Presched DO
Join
`
	type file struct {
		prog       *forcelang.Program
		errLine    string
		planPrefix string
	}
	files := []file{
		{forcelang.MustParse(text), "force runtime: line 6: ", "line 5: DOALL partition=block"},
		{forcelang.MustParse("\n\n! the same program, three lines down\n" + text), "force runtime: line 9: ", "line 8: DOALL partition=block"},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		cache, err := aot.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range []string{"cold", "warm"} {
			for _, i := range order {
				f := files[i]
				name := fmt.Sprintf("order %v, %s, file %d", order, round, i)
				var plan []string
				wantErr := interp.Run(f.prog, interp.Config{NP: 2, FuseLog: func(msg string) { plan = append(plan, msg) }})
				if wantErr == nil || !strings.HasPrefix(wantErr.Error(), f.errLine) || len(plan) != 2 || plan[0] != f.planPrefix {
					t.Fatalf("%s: chunk tier reference: error %v, plan %q", name, wantErr, plan)
				}
				entry, err := cache.Ensure(f.prog, aot.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := entry.RunContext(context.Background(), 2, io.Discard); err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s: aot error %v, chunk tier %v", name, err, wantErr)
				}
				if got := entry.Plan(); strings.Join(got, "\n") != strings.Join(plan, "\n") {
					t.Errorf("%s: aot plan %q, chunk tier %q", name, got, plan)
				}
			}
		}
		if s := cache.Stats(); s.Builds != 2 || s.Hits != 2 {
			t.Errorf("order %v: %v, want two builds and two warm hits", order, s)
		}
	}
}

// TestAOTSpanAbortLatency is the native twin of the interpreter's
// TestChunkedAbortLatency: one process faults on its second iteration of
// a long prescheduled span; its peers, deep in spans of their own, leave
// through the in-span poison check instead of finishing them, and the
// cached binary reports the interpreter's exact message.
func TestAOTSpanAbortLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	prog := forcelang.MustParse(`Force ABT of NP ident ME
Shared Real A(1000000)
Private Integer I, K
End Declarations
Presched DO I = 1, 1000000
  DO K = 1, 4000
    A(I) = A(I) + REAL(I / (I - 3))
  End DO
End Presched DO
Join
`)
	_, want := interpRun(t, prog, 2, interp.ExecChunked)
	if want == nil || !strings.Contains(want.Error(), "force runtime: line 7: integer division by zero") {
		t.Fatalf("interpreter reference: %v", want)
	}
	if _, err := aotTestCache(t).Ensure(prog, aot.Options{}); err != nil { // build outside the timed runs
		t.Fatal(err)
	}
	// A clean peer span is at least 125k iterations of 4000 inner steps
	// each — several seconds of work — so an abort that waited for it
	// would show.
	for _, np := range []int{2, 8} {
		start := time.Now()
		_, err := aotRun(t, prog, np)
		elapsed := time.Since(start)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("np=%d: aot error %v, interpreter %v", np, err, want)
		}
		if elapsed > time.Second {
			t.Errorf("np=%d: abort took %v — the span loop is not checking poison", np, elapsed)
		}
		t.Logf("np=%d: native abort in %v", np, elapsed)
	}
}

// TestAOTSpanFaultOrder: a span that fails the end-point test runs the
// per-iteration checked loop on both span tiers, so what a program
// prints, and the first fault it raises in iteration order, do not depend
// on the tier.  Three block-dealt loops whose last span fails the test:
// testdata/spancheck.force, whose B(I + 1) is one past the extent at
// I = N; the same reference behind an IF that keeps it in range, which
// runs clean; and a span that divides by zero at I = 60, before the
// subscript fault at I = 64 — the division is what both report.
func TestAOTSpanFaultOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	spancheck, err := os.ReadFile("testdata/spancheck.force")
	if err != nil {
		t.Fatal(err)
	}
	const head = `Force ORDER of NP ident ME
Shared Real A(64), B(64)
Shared Integer N
Private Integer I
End Declarations
Barrier
  N = 64
End Barrier
Presched DO I = 1, N
  B(I) = REAL(I)
End Presched DO
Presched DO I = 1, N
`
	for _, tc := range []struct{ name, src, err string }{
		{"spancheck.force", string(spancheck), "force runtime: line 14: subscript 1 of B out of range: 65 not in [1,64]"},
		{"guarded", head + `  IF (I .LT. N) THEN
    A(I) = B(I + 1)
  END IF
End Presched DO
Barrier
  Print A(1), A(63), A(64)
End Barrier
Join
`, ""},
		{"division first", head + `  A(I) = B(I + 1) + REAL(100 / (I - 60))
End Presched DO
Join
`, "force runtime: line 13: integer division by zero"},
	} {
		prog := forcelang.MustParse(tc.src)
		for _, np := range []int{1, 2, 3} {
			want, wantErr := interpRun(t, prog, np, interp.ExecChunked)
			if (wantErr == nil) != (tc.err == "") || wantErr != nil && wantErr.Error() != tc.err {
				t.Fatalf("%s np=%d: chunked tier raises %v, want %q", tc.name, np, wantErr, tc.err)
			}
			got, gotErr := aotRun(t, prog, np)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s np=%d: aot printed %q, error %v; chunked printed %q, error %v", tc.name, np, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestPlanNarrationAcrossTiers: the chunk tier (through Config.FuseLog)
// and the Go emitter (codegen.Lower) narrate the same decisions in the
// same order — main program first, subroutines in source order — on
// every run.  The program spreads DOALLs over three units so a map-order
// walk would show.  The one thing each back end sizes for itself is the
// grant of a selfscheduled loop (plan.Target.NsPerUnit), so the lines are
// compared with its number taken out — and it must differ: the 20000-trip
// loop's SQRT, which can raise, keeps its body per iteration on the chunk
// tier, at four times the native cost of a unit (a block-evaluated body, like ABLE's
// B(K) = 0.0, is sized at the native one).  Both say of
// ABLE's 32-trip selfscheduled loop that it fits one grant and process 0
// runs it, and neither says so of the 20000-trip one behind it.  Which
// element references a DOALL range-checks per span is a plan decision
// both back ends narrate (plan.Loop.SpanChecked), one "span-checked" line
// per planned DOALL that subscripts a shared array.  The REAL GSUM behind the last loop folds into that loop's join under either
// reduction strategy (a fused tail and a reduction on its own fold the
// same way), so the narration does not depend on the strategy.
func TestPlanNarrationAcrossTiers(t *testing.T) {
	prog := forcelang.MustParse(`Force TIERS of NP ident ME
Shared Real A(32), B(32), TOT
Shared Integer S
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 32
  B(I) = A(I) * 2.0
End Presched DO
Call ZED
Call ABLE
Presched DO I = 1, 32
  A(I) = REAL(ME)
End Presched DO
GSUM TOT = 0.1 * REAL(ME)
Join
Forcesub ZED()
Private Integer K
End Declarations
Presched DO K = 1, 32
  S = S + K
End Presched DO
Presched DO K = 1, 32
  S = S * 2
End Presched DO
Endsub
Forcesub ABLE()
Private Integer K
End Declarations
Selfsched DO K = 1, 32
  B(K) = 0.0
End Selfsched DO
Selfsched DO K = 1, 20000
  S = S + INT(SQRT(REAL(K)))
End Selfsched DO
Presched DO K = 1, 32
  Critical L
    S = S + 1
  End Critical
End Presched DO
Endsub
`)
	grantSize := regexp.MustCompile(`grant=[0-9]+`)
	var slots string
	for _, rk := range []reduce.Kind{reduce.PrivateSlots, reduce.Critical} {
		_, lines, err := codegen.Lower(prog, codegen.Options{Reduce: rk})
		if err != nil {
			t.Fatal(err)
		}
		want := grantSize.ReplaceAllString(strings.Join(lines, "\n"), "grant=K")
		if len(lines) < 6 || !strings.HasPrefix(lines[0], "line 6:") || !strings.Contains(want, "line 32: DOALL grant=K ≥ trip count: process 0 runs it\n") ||
			!strings.Contains(want, "line 35: DOALL grant=K\n") ||
			!strings.Contains(want, "line 14: fused 1 DOALL(s) + GSUM at line 17 into one join\n") {
			t.Fatalf("-reduce %s: emitter narration looks wrong:\n%s", rk, strings.Join(lines, "\n"))
		}
		if n := strings.Count(want, ": DOALL span-checked "); n != 4 { // the three main-program loops and ABLE's B(K)
			t.Fatalf("-reduce %s: %d span-checked lines, want 4:\n%s", rk, n, want)
		}
		if rk == reduce.PrivateSlots {
			slots = want
		} else if want != slots {
			t.Fatalf("the narration depends on the strategy: -reduce %s narrates\n%s\nthe default\n%s", rk, want, slots)
		}
		for round := 0; round < 10; round++ {
			var got []string
			err := interp.Run(prog, interp.Config{NP: 2, Stdout: io.Discard, Reduce: rk,
				FuseLog: func(msg string) { got = append(got, msg) }})
			if err != nil {
				t.Fatal(err)
			}
			if grantSize.ReplaceAllString(strings.Join(got, "\n"), "grant=K") != want {
				t.Fatalf("-reduce %s round %d: chunk tier narrates\n%s\nemitter narrates\n%s",
					rk, round, strings.Join(got, "\n"), strings.Join(lines, "\n"))
			}
			if strings.Join(got, "\n") == strings.Join(lines, "\n") {
				t.Fatalf("round %d: both back ends size the grant alike:\n%s", round, strings.Join(got, "\n"))
			}
		}
	}

	// The sweep: every program the repository owns — each corpus program
	// and every .force file under examples/, testdata/ and
	// benchmark/programs/ — narrates on both back ends the lines
	// testdata/narration.golden pins (`go test -run
	// TestPlanNarrationAcrossTiers . -update` rewrites it: review the
	// diff), and since both walk one node list (plan.Target.Next) the two
	// agree once grant sizes are masked.  Decisions are compile-time: a
	// context dead on arrival narrates them all and starts no force.
	sources := ownedPrograms(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	// Whether a loop fits one grant follows from the grant's size.
	grantLine := regexp.MustCompile(`grant=[0-9]+( ≥ trip count: process 0 runs it)?`)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var golden strings.Builder
	decided := 0
	for _, name := range names {
		prog, err := forcelang.Parse(sources[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, lines, err := codegen.Lower(prog, codegen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var chunked []string
		err = interp.Run(prog, interp.Config{NP: 2, Context: dead, FuseLog: func(msg string) { chunked = append(chunked, msg) }})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: the run started: %v", name, err)
		}
		want := grantLine.ReplaceAllString(strings.Join(lines, "\n"), "grant=K")
		if grantLine.ReplaceAllString(strings.Join(chunked, "\n"), "grant=K") != want {
			t.Errorf("%s: chunk tier narrates\n%s\nemitter narrates\n%s", name, strings.Join(chunked, "\n"), strings.Join(lines, "\n"))
		}
		fmt.Fprintf(&golden, "== %s\n", name)
		for _, l := range chunked {
			fmt.Fprintf(&golden, "chunked %s\n", l)
		}
		for _, l := range lines {
			fmt.Fprintf(&golden, "codegen %s\n", l)
		}
		decided += len(lines)
	}
	if decided < 300 {
		t.Errorf("the sweep compared %d decisions over %d programs: it is not reading the narration", decided, len(sources))
	}
	checkGolden(t, "testdata/narration.golden", golden.String())

	// The files under testdata/narration/ are what they narrate for: at np
	// 4, on the chunked tier and (unless -short) the aot tier, each prints
	// its .want — forcevet's diagnostics ("forcevet: ..."), the output, and
	// the run-time error if the run fails ("error: ...").
	files, err := filepath.Glob("testdata/narration/*.force")
	if err != nil || len(files) == 0 {
		t.Fatalf("no narration files: %v", err)
	}
	for _, f := range files {
		prog := forcelang.MustParse(sources[filepath.ToSlash(f)])
		diags, err := vet.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		var vetted strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&vetted, "forcevet: %s\n", d)
		}
		want, err := os.ReadFile(strings.TrimSuffix(f, ".force") + ".want")
		if err != nil {
			t.Fatal(err)
		}
		tiers := map[string]func() (string, error){"chunked": func() (string, error) { return interpRun(t, prog, 4, interp.ExecChunked) }}
		if !testing.Short() {
			tiers["aot"] = func() (string, error) { return aotRun(t, prog, 4) }
		}
		for tier, run := range tiers {
			out, err := run()
			got := vetted.String() + out
			if err != nil {
				got += fmt.Sprintf("error: %v\n", err)
			}
			if got != string(want) {
				t.Errorf("%s at np 4 on the %s tier prints\n%s\nwant\n%s", f, tier, got, want)
			}
		}
	}
}

// TestImplicitConversionPlansLikeExplicit: B(I) * I and B(I) * REAL(I)
// are one computation, so they are one plan on both back ends — the
// checker places the implicit conversion as the REAL node the explicit
// spelling has, and the planner costs it once.
func TestImplicitConversionPlansLikeExplicit(t *testing.T) {
	narrate := func(rhs string) string {
		prog := forcelang.MustParse(`Force GRANT of NP ident ME
Shared Real A(1000), B(1000)
Private Integer I
End Declarations
Selfsched DO I = 1, 1000
  A(I) = ` + rhs + `
End Selfsched DO
Join
`)
		_, lines, err := codegen.Lower(prog, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		err = interp.Run(prog, interp.Config{NP: 2, Context: dead, FuseLog: func(msg string) {
			lines = append(lines, msg)
		}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: the run started: %v", rhs, err)
		}
		return strings.Join(lines, "\n")
	}
	implicit, explicit := narrate("B(I) * I"), narrate("B(I) * REAL(I)")
	if !strings.Contains(implicit, "grant=") || implicit != explicit {
		t.Errorf("B(I) * I narrates\n%s\nB(I) * REAL(I) narrates\n%s", implicit, explicit)
	}
}

// TestAOTBuildFailureIsReported: INTEGER arithmetic on literals that
// overflows int64 builds and wraps natively, silently; a build that does
// fail falls back to the chunked interpreter with one stderr line even
// without -v (only a missing toolchain falls back quietly).
func TestAOTBuildFailureIsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, `Force OVF of NP ident ME
End Declarations
Barrier
  Print 9223372036854775807 + 1
End Barrier
Join
`)
	run := func(env []string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, append(args, prog)...)
		cmd.Env = append(append(os.Environ(), aot.EnvCacheDir+"="+t.TempDir()), env...)
		var out, errs strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errs
		if err := cmd.Run(); err != nil {
			t.Fatalf("forcerun %v: %v\n%s", args, err, errs.String())
		}
		return out.String(), errs.String()
	}
	const want = "-9223372036854775808\n"
	if out, errs := run(nil, "-exec", "aot"); out != want || errs != "" {
		t.Errorf("-exec aot: stdout %q, stderr %q; want %q and nothing", out, errs, want)
	}
	if out, errs := run(nil, "-exec", "aot", "-v"); out != want || strings.Contains(errs, "falling back") {
		t.Errorf("-exec aot -v: stdout %q, stderr %q; want %q and no fallback", out, errs, want)
	}
	out, errs := run([]string{"GOFLAGS=-toolexec=/bin/false"}, "-exec", "aot")
	if out != want || strings.Count(errs, "falling back to the chunked interpreter") != 1 {
		t.Errorf("failed build: stdout %q, stderr %q; want %q and one fallback line", out, errs, want)
	}
}
