// The fault-injection chaos sweep — the acceptance harness of the
// robustness PR.  For every injection site of the runtime, under every
// injector kind, execution tier and force size, one fault is armed in
// the middle of an acceptance-corpus program and the run must end,
// within a hard deadline, in exactly one of two states:
//
//   - correct output (the injection did not fire, or was a pure delay);
//   - a clean abort carrying the injected failure (a Panic injection) or
//     the external deadline (a Stall injection ended by cancellation).
//
// Never a hang, never a silently wrong answer.  The injection plan is
// process-global, so these tests are strictly sequential.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/forcelang"
	"repro/internal/interp"
)

// chaosProgram maps each in-process injection site to the corpus
// program that actually exercises it.  (The aot.* sites run in the
// driver process; they are covered by TestChaosThroughForcerun.)
var chaosProgram = map[string]string{
	faultinject.BarrierEnter:   "shared-scalar-traffic",
	faultinject.BarrierSection: "shared-scalar-traffic",
	faultinject.BarrierExit:    "shared-scalar-traffic",
	faultinject.ReduceContrib:  "reductions",
	faultinject.ReduceCombine:  "reductions",
	faultinject.ReduceRelease:  "reductions",
	faultinject.AsyncProduce:   "async-wave",
	faultinject.AsyncConsume:   "async-wave",
	faultinject.AsyncCopy:      "async-copy-void",
	faultinject.AskforPut:      "askfor-put",
	faultinject.AskforTake:     "askfor-put",
	faultinject.EnginePark:     "askfor-put",
	faultinject.EngineSteal:    "askfor-put",
}

func equivProgram(t *testing.T, name string) corpus.Program {
	t.Helper()
	for _, p := range corpus.Equiv {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("corpus program %q not found", name)
	return corpus.Program{}
}

// chaosNPs is the force-size sweep: {1, 2, 8} per the acceptance
// criterion, subsampled to {2} under -short.  async-copy-void is the
// one corpus program written for exactly one process.
func chaosNPs(progName string) []int {
	if progName == "async-copy-void" {
		return []int{1}
	}
	if testing.Short() {
		return []int{2}
	}
	return []int{1, 2, 8}
}

func chaosModes() []interp.ExecMode {
	if testing.Short() {
		return []interp.ExecMode{interp.ExecTree, interp.ExecChunked}
	}
	return interp.ExecModes()
}

func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// runInterp runs prog at np under mode with ctx bounding the run and a
// hard harness deadline catching any non-poison-responsive hang.
func runInterp(t *testing.T, ctx context.Context, prog *forcelang.Program, np int, mode interp.ExecMode) (string, error) {
	t.Helper()
	var sb strings.Builder
	errc := make(chan error, 1)
	go func() {
		errc <- interp.Run(prog, interp.Config{NP: np, Stdout: &sb, Exec: mode, Context: ctx})
	}()
	select {
	case err := <-errc:
		return sb.String(), err
	case <-time.After(60 * time.Second):
		t.Fatalf("np=%d %s: run did not return — the force is hung", np, mode)
		return "", nil
	}
}

// TestChaosSweep is the sweep itself: site × injector × tier × np.
func TestChaosSweep(t *testing.T) {
	type refKey struct {
		name string
		np   int
		mode interp.ExecMode
	}
	refs := map[refKey]string{}
	reference := func(t *testing.T, name string, prog *forcelang.Program, np int, mode interp.ExecMode) string {
		k := refKey{name, np, mode}
		if out, ok := refs[k]; ok {
			return out
		}
		faultinject.Disable()
		out, err := runInterp(t, context.Background(), prog, np, mode)
		if err != nil {
			t.Fatalf("clean reference run failed: %v", err)
		}
		refs[k] = sortedLines(out)
		return refs[k]
	}

	seed := int64(0)
	for _, site := range faultinject.Sites {
		progName, ok := chaosProgram[site]
		if !ok {
			continue // driver-process site, covered through forcerun
		}
		src := equivProgram(t, progName)
		prog := forcelang.MustParse(src.Src)
		for _, kind := range faultinject.Kinds() {
			for _, mode := range chaosModes() {
				for _, np := range chaosNPs(progName) {
					seed++
					name := fmt.Sprintf("%s/%s/%s/np%d", site, kind, mode, np)
					t.Run(name, func(t *testing.T) {
						want := reference(t, progName, prog, np, mode)

						plan := faultinject.NewPlan(seed).
							Add(faultinject.Injection{Site: site, Kind: kind, After: -1, Pid: -1})
						faultinject.Enable(plan)
						defer faultinject.Disable()

						// A Stall can only end by external cancellation, so
						// those runs carry a tight deadline; Panic and Delay
						// runs get hang-catching headroom only.
						limit := 10 * time.Second
						if kind == faultinject.Stall {
							limit = 500 * time.Millisecond
						}
						ctx, cancel := context.WithTimeout(context.Background(), limit)
						defer cancel()
						out, err := runInterp(t, ctx, prog, np, mode)

						fired := plan.Fired(site)
						if err == nil {
							if got := sortedLines(out); got != want {
								t.Fatalf("fired=%v: wrong output\ngot:\n%s\nwant:\n%s", fired, got, want)
							}
							if fired && kind != faultinject.Delay {
								t.Fatalf("%s injection fired yet the run reported success", kind)
							}
							return
						}
						switch kind {
						case faultinject.Delay:
							t.Fatalf("delay injection broke the run: %v", err)
						case faultinject.Panic:
							if !fired || !strings.Contains(err.Error(), "fault injected at "+site) {
								t.Fatalf("fired=%v: abort does not carry the injected failure: %v", fired, err)
							}
						case faultinject.Stall:
							if !fired || !errors.Is(err, context.DeadlineExceeded) {
								t.Fatalf("fired=%v: stalled run ended with %v, want the deadline", fired, err)
							}
						}
					})
				}
			}
		}
	}
}

// buildTool compiles one cmd/ binary for integration subtests.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestChaosThroughForcerun covers the FORCE_FAULTS arming path and the
// driver-process aot.* sites end to end through the CLI.
func TestChaosThroughForcerun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, equivProgram(t, "shared-scalar-traffic").Src)

	t.Run("interp-panic", func(t *testing.T) {
		out, code := runForcerunEnv(t, 30*time.Second,
			[]string{"FORCE_FAULTS=barrier.enter=panic/after=0"}, bin, "-np", "4", prog)
		if code != 1 || !strings.Contains(out, "fault injected at barrier.enter") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})

	t.Run("malformed-spec", func(t *testing.T) {
		out, code := runForcerunEnv(t, 30*time.Second,
			[]string{"FORCE_FAULTS=bogus=panic"}, bin, "-np", "4", prog)
		if code != 2 || !strings.Contains(out, "unknown site") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})

	t.Run("stall-ended-by-timeout", func(t *testing.T) {
		out, code := runForcerunEnv(t, 60*time.Second,
			[]string{"FORCE_FAULTS=barrier.enter=stall/after=0"}, bin,
			"-np", "4", "-timeout", "500ms", prog)
		if code != 1 || !strings.Contains(out, "wall-clock deadline exceeded after 500ms") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})

	cacheDir := t.TempDir()
	t.Run("aot-build-panic", func(t *testing.T) {
		// A fault in the cold build path exercises the tier's graceful
		// degradation: forcerun falls back to the interpreter and the run
		// still produces correct output — the chaos contract's "correct
		// output" arm, not its abort arm.
		out, code := runForcerunEnv(t, 3*time.Minute,
			[]string{"FORCE_FAULTS=aot.build=panic/after=0", "FORCE_CACHE=" + cacheDir}, bin,
			"-np", "4", "-exec", "aot", prog)
		if code != 0 || !strings.Contains(out, "20100") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})

	t.Run("aot-exec-panic", func(t *testing.T) {
		// The build site is unarmed now, so a cold build succeeds and the
		// exec site fires in the driver just before running the binary.
		out, code := runForcerunEnv(t, 3*time.Minute,
			[]string{"FORCE_FAULTS=aot.exec=panic/after=0", "FORCE_CACHE=" + cacheDir}, bin,
			"-np", "4", "-exec", "aot", prog)
		if code != 1 || !strings.Contains(out, "fault injected at aot.exec") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})
}

// TestWallClockTimeout: a stalled program is bounded by the wall-clock
// deadline under both execution tiers, and a program that finishes
// inside it prints no blocked-process report.
func TestWallClockTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, stallSrc)

	t.Run("chunked", func(t *testing.T) {
		out, code := runForcerun(t, 60*time.Second, bin,
			"-np", "4", "-exec", "chunked", "-timeout", "1s", prog)
		if code != 1 || !strings.Contains(out, "wall-clock deadline exceeded after 1s") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
	})

	t.Run("aot", func(t *testing.T) {
		// Pre-warm the cache through forcec -cache (building under the
		// wall clock would eat the deadline), then the native run itself
		// is killed at the deadline: process group down, orphan reaped,
		// deadline reported.
		cacheDir := t.TempDir()
		forcec := buildTool(t, "./cmd/forcec")
		out, code := runForcerunEnv(t, 3*time.Minute, []string{"FORCE_CACHE=" + cacheDir},
			forcec, "-cache", prog)
		if code != 0 {
			t.Fatalf("forcec -cache exit=%d:\n%s", code, out)
		}
		start := time.Now()
		out, code = runForcerunEnv(t, 60*time.Second, []string{"FORCE_CACHE=" + cacheDir}, bin,
			"-np", "4", "-exec", "aot", "-timeout", "2s", prog)
		if code != 1 || !strings.Contains(out, "wall-clock deadline exceeded after 2s") {
			t.Errorf("exit=%d output:\n%s", code, out)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("killed native run returned after %v, want prompt group kill", elapsed)
		}
	})

	t.Run("finishes-inside", func(t *testing.T) {
		prog := writeProgram(t, helloSrc)
		out, code := runForcerun(t, 60*time.Second, bin, "-np", "4", "-timeout", "30s", prog)
		if code != 0 || strings.Contains(out, "process") || strings.Contains(out, "deadline") {
			t.Errorf("exit=%d, want 0 and no report:\n%s", code, out)
		}
	})
}
