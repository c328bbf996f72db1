// Static-analysis integration tests: forcevet's wiring into the real
// forcerun/forcec/forcevet binaries — warn-by-default reporting on
// stderr, -vet=err refusing to run, -vet=off staying silent, and
// -explain printing the long-form rule text — and the diagnostics of
// every program the repository owns, pinned in testdata/vet.golden.
package repro_test

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/forcelang"
	"repro/internal/vet"
)

// TestVetGolden pins forcevet's diagnostics, in the lines the command
// prints, for each corpus program and every .force file under
// examples/, testdata/ and benchmark/programs/ (`go test -run
// TestVetGolden . -update` rewrites testdata/vet.golden: review the
// diff; a refactor of the analysis must leave it unchanged).
func TestVetGolden(t *testing.T) {
	sources := ownedPrograms(t)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var golden strings.Builder
	diagnosed := 0
	for _, name := range names {
		fmt.Fprintf(&golden, "== %s\n", name)
		prog, err := forcelang.Parse(sources[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diags, err := vet.Analyze(prog)
		if err != nil {
			fmt.Fprintf(&golden, "error: %v\n", err)
			continue
		}
		for _, d := range diags {
			fmt.Fprintf(&golden, "%s:%d: %s %s: %s\n", name, d.Line, d.Code, d.Sev, d.Message)
		}
		diagnosed += len(diags)
	}
	if diagnosed < 15 {
		t.Errorf("the sweep drew %d diagnostics from %d programs: it is not reading forcevet", diagnosed, len(sources))
	}
	checkGolden(t, "testdata/vet.golden", golden.String())
}

// TestForcerunVetModes drives the issue's repro program (a non-uniform
// division by zero heading into a barrier) through all three -vet
// modes.
func TestForcerunVetModes(t *testing.T) {
	bin := buildForcerun(t)
	prog := writeProgram(t, reproSrc)

	// Default (warn): the diagnostic prints, the program still runs,
	// and the runtime containment still reports the fault.
	out, code := runForcerun(t, 30*time.Second, bin, "-np", "2", prog)
	if code != 1 {
		t.Errorf("warn mode: exit %d, want 1 (runtime fault)\n%s", code, out)
	}
	if !strings.Contains(out, "FV002") || !strings.Contains(out, "line 5") {
		t.Errorf("warn mode: expected an FV002 diagnostic at line 5:\n%s", out)
	}
	if !strings.Contains(out, "force runtime:") {
		t.Errorf("warn mode: the program should still have run:\n%s", out)
	}

	// -vet=err: the run is refused before the force is created.
	out, code = runForcerun(t, 30*time.Second, bin, "-np", "2", "-vet=err", prog)
	if code != 1 {
		t.Errorf("err mode: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "FV002") || !strings.Contains(out, "-vet=err") {
		t.Errorf("err mode: expected the diagnostic and the -vet=err refusal:\n%s", out)
	}
	if strings.Contains(out, "force runtime:") {
		t.Errorf("err mode: the program must not run:\n%s", out)
	}

	// -vet=off: no diagnostics, straight to the runtime fault.
	out, code = runForcerun(t, 30*time.Second, bin, "-np", "2", "-vet=off", prog)
	if code != 1 {
		t.Errorf("off mode: exit %d, want 1 (runtime fault)\n%s", code, out)
	}
	if strings.Contains(out, "FV002") {
		t.Errorf("off mode: no diagnostics expected:\n%s", out)
	}
	if !strings.Contains(out, "force runtime:") {
		t.Errorf("off mode: the program should have run:\n%s", out)
	}
}

// TestForcevetBinary sweeps the standalone tool over a failing program
// and the shipped examples.
func TestForcevetBinary(t *testing.T) {
	bin := buildTool(t, "./cmd/forcevet")
	prog := writeProgram(t, reproSrc)

	out, err := exec.Command(bin, prog).CombinedOutput()
	if err == nil {
		t.Errorf("forcevet on the repro should exit nonzero:\n%s", out)
	}
	if !strings.Contains(string(out), "FV002 error") {
		t.Errorf("expected an FV002 error line:\n%s", out)
	}

	examples, globErr := filepath.Glob("examples/*/*.force")
	if globErr != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", globErr)
	}
	out, err = exec.Command(bin, append([]string{"-err"}, examples...)...).CombinedOutput()
	if err != nil || len(out) != 0 {
		t.Errorf("examples must be diagnostic-free even under -err: %v\n%s", err, out)
	}
}

// TestForcecExplain checks the long-form rule mode, including its
// no-input-file calling convention.
func TestForcecExplain(t *testing.T) {
	bin := buildTool(t, "./cmd/forcec")
	out, err := exec.Command(bin, "-explain", "FV001").CombinedOutput()
	if err != nil {
		t.Fatalf("forcec -explain FV001: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.HasPrefix(text, "FV001:") || !strings.Contains(text, "Barrier") {
		t.Errorf("unexpected explanation:\n%s", text)
	}
	out, err = exec.Command(bin, "-explain", "FV999").CombinedOutput()
	if err == nil {
		t.Errorf("unknown code should exit nonzero:\n%s", out)
	}
	if !strings.Contains(string(out), "FV201") {
		t.Errorf("the error should list known codes:\n%s", out)
	}
}

// TestForcecCheckRunsVet: -check reports diagnostics but still prints
// ok under the default warn mode, and fails under -vet=err.
func TestForcecCheckRunsVet(t *testing.T) {
	bin := buildTool(t, "./cmd/forcec")
	prog := writeProgram(t, reproSrc)

	out, err := exec.Command(bin, "-check", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("-check (warn) should succeed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "FV002") || !strings.Contains(string(out), "ok") {
		t.Errorf("-check should report the diagnostic and still say ok:\n%s", out)
	}

	out, err = exec.Command(bin, "-check", "-vet=err", prog).CombinedOutput()
	if err == nil {
		t.Errorf("-check -vet=err should fail:\n%s", out)
	}
}
