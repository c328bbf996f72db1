// Fault-containment integration tests: the repro from the issue — a
// non-uniform runtime error followed by a barrier — must abort the
// whole force promptly with a force runtime error, under every barrier
// algorithm and both execution engines, through the real forcerun
// binary.  Before the poison protocol this program hard-deadlocked
// forcerun at np > 1 and died with Go's raw "all goroutines are
// asleep" dump (exit status 2).
package repro_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/codegen"
	"repro/internal/forcelang"
	"repro/internal/interp"
)

// reproSrc is the issue's repro: pid 1 divides by zero, everyone else
// proceeds to the barrier.
const reproSrc = `Force REPRO of NP ident ME
Private Integer I
End Declarations
IF (ME .EQ. 1) THEN
I = 1 / 0
END IF
Barrier
End Barrier
Join
`

// stallSrc is a genuinely non-conformant SPMD program: only process 0
// reaches the barrier, so no error occurs and no abort fires — the
// stall watchdog's territory.
const stallSrc = `Force STALL of NP ident ME
End Declarations
IF (ME .EQ. 0) THEN
Barrier
End Barrier
END IF
Join
`

// buildForcerun compiles cmd/forcerun once per test run.
func buildForcerun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "forcerun")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/forcerun").CombinedOutput()
	if err != nil {
		t.Fatalf("building forcerun: %v\n%s", err, out)
	}
	return bin
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.force")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runForcerun executes the binary with a hard deadline and returns
// (combined output, exit code).
func runForcerun(t *testing.T, deadline time.Duration, bin string, args ...string) (string, int) {
	t.Helper()
	return runForcerunEnv(t, deadline, nil, bin, args...)
}

// runForcerunEnv is runForcerun with extra environment entries — the
// aot tier's tests point FORCE_CACHE at a per-test store.
func runForcerunEnv(t *testing.T, deadline time.Duration, env []string, bin string, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("forcerun %v did not exit within %v (hang regression):\n%s", args, deadline, buf.String())
	}
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("forcerun %v: %v", args, err)
	}
	return buf.String(), code
}

// TestReproAbortsEverywhere is the acceptance criterion: the repro
// exits promptly with code 1 and a force runtime message at np=4 under
// every -exec tier — interpreted and native — and every -barrier kind:
// no goroutine dump, no hang.  The aot tier gets a per-test FORCE_CACHE
// and a longer deadline for its one-time builds (one per barrier kind;
// the barrier algorithm is part of the cache key).
func TestReproAbortsEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, reproSrc)
	cacheDir := t.TempDir()
	for _, execMode := range []string{"tree", "compiled", "chunked", "aot"} {
		for _, bk := range barrier.Kinds() {
			t.Run(execMode+"/"+bk.String(), func(t *testing.T) {
				deadline := 30 * time.Second
				var env []string
				if execMode == "aot" {
					deadline = 3 * time.Minute
					env = []string{"FORCE_CACHE=" + cacheDir}
				}
				start := time.Now()
				out, code := runForcerunEnv(t, deadline, env, bin,
					"-np", "4", "-exec", execMode, "-barrier", bk.String(), prog)
				elapsed := time.Since(start)
				if code != 1 {
					t.Errorf("exit code %d, want 1\n%s", code, out)
				}
				if !strings.Contains(out, "force runtime") {
					t.Errorf("output missing force runtime message:\n%s", out)
				}
				if strings.Contains(out, "all goroutines are asleep") || strings.Contains(out, "goroutine ") {
					t.Errorf("raw goroutine dump leaked:\n%s", out)
				}
				// The criterion is 2s; allow headroom for a loaded CI
				// box while still catching a reintroduced park-forever.
				// A cold aot run spends its time in go build, not in the
				// abort path, so it gets build-scale headroom.
				limit := 10 * time.Second
				if execMode == "aot" {
					limit = time.Minute
				}
				if elapsed > limit {
					t.Errorf("took %v, want prompt abort", elapsed)
				}
			})
		}
	}
}

// TestProfilesWrittenOnAbortedRun: -cpuprofile/-memprofile must
// finalize when the run exits through the new error path.  (The old
// failure mode — a Go fatal deadlock — bypassed the defers and lost
// both profiles silently.)
func TestProfilesWrittenOnAbortedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, reproSrc)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	out, code := runForcerun(t, 30*time.Second, bin,
		"-np", "4", "-cpuprofile", cpu, "-memprofile", mem, prog)
	if code != 1 || !strings.Contains(out, "force runtime") {
		t.Fatalf("exit=%d output:\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written on aborted run: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s empty on aborted run", p)
		}
	}
}

// TestHangTimeoutWatchdog: a non-conformant program under
// -hang-timeout reports the blocked process and its construct/line,
// then exits through the error path instead of hanging.
func TestHangTimeoutWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, stallSrc)
	for _, execMode := range []string{"tree", "compiled"} {
		t.Run(execMode, func(t *testing.T) {
			out, code := runForcerun(t, 60*time.Second, bin,
				"-np", "4", "-exec", execMode, "-hang-timeout", "2s", prog)
			if code != 1 {
				t.Errorf("exit code %d, want 1\n%s", code, out)
			}
			for _, want := range []string{"appears stalled", "process 0: Barrier", "line 4", "force stalled"} {
				if !strings.Contains(out, want) {
					t.Errorf("watchdog output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestHangTimeoutAOT: the native tier cannot introspect the child's
// blocked processes, but -hang-timeout still bounds a stalled run: the
// child is killed at the deadline and forcerun exits through the error
// path with a stall message.
func TestHangTimeoutAOT(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	prog := writeProgram(t, stallSrc)
	env := []string{"FORCE_CACHE=" + t.TempDir()}
	out, code := runForcerunEnv(t, 3*time.Minute, env, bin,
		"-np", "4", "-exec", "aot", "-hang-timeout", "2s", prog)
	if code != 1 {
		t.Errorf("exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "force stalled") {
		t.Errorf("output missing stall message:\n%s", out)
	}
}

// TestForcerunVerboseNarratesPartition pins the -v narration of the
// chunk tier's partition choice on the benchmark's stream.force: both of
// its prescheduled DOALLs are disjoint sweeps nothing can observe the
// iteration-to-process map of, so both are dealt in blocks — and a
// body that stores ME keeps the cyclic deal, with the reason.  The
// narration is compile-time, so the program's output is untouched.
func TestForcerunVerboseNarratesPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun with the go toolchain")
	}
	bin := buildForcerun(t)
	out, code := runForcerun(t, time.Minute, bin, "-np", "2", "-v",
		filepath.Join("benchmark", "programs", "doall-stream", "stream.force"))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"forcerun: tier chunked: np 2, chunk 16, fusion on",
		"forcerun: fuse: line 17: DOALL partition=block",
		"forcerun: fuse: line 22: DOALL partition=block",
		"stream checksum 279913",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	prog := writeProgram(t, `Force OWN of NP ident ME
Shared Integer OWNER(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  OWNER(I) = ME
End Presched DO
Join
`)
	out, code = runForcerun(t, time.Minute, bin, "-np", "2", "-v", prog)
	if want := "forcerun: fuse: line 5: DOALL partition=cyclic (reads private ME)"; code != 0 || !strings.Contains(out, want) {
		t.Errorf("exit %d, output missing %q:\n%s", code, want, out)
	}

	// The native tier narrates the same plan lines from the same plan,
	// after its own tier line: a build on the first run of a program, a
	// cache hit on the next.
	env := []string{"FORCE_CACHE=" + t.TempDir()}
	for _, tier := range []string{"forcerun: tier aot: cache miss", "forcerun: tier aot: cache hit"} {
		out, code := runForcerunEnv(t, 3*time.Minute, env, bin, "-np", "2", "-exec", "aot", "-v", prog)
		for _, want := range []string{tier, "forcerun: fuse: line 5: DOALL partition=cyclic (reads private ME)"} {
			if code != 0 || !strings.Contains(out, want) {
				t.Errorf("-exec aot: exit %d, output missing %q:\n%s", code, want, out)
			}
		}
	}
}

// TestGeneratedDriverRecoversAbort: the codegen driver must report a
// non-uniform runtime failure as a force runtime error and exit 1, not
// die with a goroutine dump.
func TestGeneratedDriverRecoversAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs generated code with the go toolchain")
	}
	// The generated dialect has no trapping division, but a subscript
	// out of range panics in generated Go too: A(ME+1) overruns A(2)
	// for ME >= 2.
	src := `Force GENABORT of NP ident ME
Shared Real A(2)
End Declarations
A(ME + 1) = 1.0
Barrier
End Barrier
Join
`
	prog := forcelang.MustParse(src)
	// Sanity: the interpreter rejects it the same way.
	if err := interp.Run(prog, interp.Config{NP: 4}); err == nil {
		t.Fatal("interpreter accepted the out-of-range program")
	}
	gen, err := codegen.Generate(prog, codegen.Options{Package: "main", DefaultNP: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(".", "zz_abort_")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(dir+"/main.go", gen, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "run", "./"+dir, "-np", "4")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	runErr := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("generated program hung:\n%s", buf.String())
	}
	var ee *exec.ExitError
	if !errors.As(runErr, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("generated program err=%v, want exit 1\n%s", runErr, buf.String())
	}
	// The generated driver reports Force runtime failures with the
	// interpreter's exact protocol: the bare "force runtime: line N:"
	// message (A(ME + 1) is line 4), not the generic recover banner.
	if !strings.Contains(buf.String(), "force runtime: line 4: subscript 1 of A out of range:") {
		t.Fatalf("generated driver did not report the interpreter-protocol failure:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "all goroutines are asleep") {
		t.Fatalf("generated driver leaked a goroutine dump:\n%s", buf.String())
	}
}
