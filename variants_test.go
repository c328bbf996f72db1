// The variant inventory: which realizations each runtime axis keeps
// (README, "Which variants exist"), and what the command line does with
// a spelling, a force size or a flag combination it no longer accepts.
package repro_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// kept is one surviving variant: its constant and its command-line
// spelling.
type kept[K any] struct {
	k    K
	name string
}

// checkAxis pins one axis: list() is exactly the keep-list, in order;
// every survivor round-trips String <-> parse; every removed spelling is
// rejected by parse with an error that names each accepted one.
func checkAxis[K interface {
	comparable
	fmt.Stringer
}](t *testing.T, axis string, list []K, parse func(string) (K, error), keep []kept[K], removed ...string) {
	t.Helper()
	var want []K
	for _, v := range keep {
		want = append(want, v.k)
		if got := v.k.String(); got != v.name {
			t.Errorf("%s: %#v.String() = %q, want %q", axis, v.k, got, v.name)
		}
		if got, err := parse(v.name); err != nil || got != v.k {
			t.Errorf("%s: parse(%q) = %v, %v; want %v", axis, v.name, got, err, v.k)
		}
	}
	if !slices.Equal(list, want) {
		t.Errorf("%s: inventory is %v, want exactly %v", axis, list, want)
	}
	for _, s := range removed {
		_, err := parse(s)
		if err == nil {
			t.Errorf("%s: removed spelling %q is still accepted", axis, s)
			continue
		}
		for _, k := range list {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("%s: error for %q does not name the accepted %q: %v", axis, s, k, err)
			}
		}
	}
}

func TestVariantInventory(t *testing.T) {
	checkAxis(t, "barrier", barrier.Kinds(), barrier.ParseKind,
		[]kept[barrier.Kind]{
			{barrier.TwoLock, "twolock"},
			{barrier.CentralSense, "sense"},
		}, "tree", "tournament", "dissemination", "butterfly", "cond")
	checkAxis(t, "reduce", reduce.Kinds(), reduce.ParseKind,
		[]kept[reduce.Kind]{
			{reduce.Critical, "critical"},
			{reduce.PrivateSlots, "slots"},
		}, "tree", "atomic")
	checkAxis(t, "sched", sched.Kinds(), sched.ParseKind,
		[]kept[sched.Kind]{
			{sched.PreschedBlock, "presched-block"},
			{sched.PreschedCyclic, "presched-cyclic"},
			{sched.SelfLock, "selfsched-lock"},
			{sched.SelfAtomic, "selfsched-atomic"},
			{sched.Chunk, "selfsched-chunk"},
		}, "guided", "tss", "stealing")
	// The -selfsched flag: the run-time disciplines only.
	selfsched := []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk}
	checkAxis(t, "-selfsched", selfsched, sched.ParseSelfschedKind,
		[]kept[sched.Kind]{
			{sched.SelfLock, "selfsched-lock"},
			{sched.SelfAtomic, "selfsched-atomic"},
			{sched.Chunk, "selfsched-chunk"},
		}, "guided", "tss", "stealing", "presched-block", "presched-cyclic")
	checkAxis(t, "lock", lock.Kinds(), lock.ParseKind,
		[]kept[lock.Kind]{
			{lock.TAS, "tas"},
			{lock.TTAS, "ttas"},
			{lock.System, "system"},
			{lock.Combined, "combined"},
		}, "ticket")
	checkAxis(t, "asyncvar", asyncvar.Impls(), asyncvar.ParseImpl,
		[]kept[asyncvar.Impl]{
			{asyncvar.TwoLock, "twolock"},
			{asyncvar.Word, "word"},
		}, "condvar")
	checkAxis(t, "askfor pool", engine.PoolKinds(), engine.ParsePoolKind,
		[]kept[engine.PoolKind]{
			{engine.MonitorPool, "monitor"},
			{engine.StealingPool, "stealing"},
		})

	// The DOALL spellings of the Go API, each with what keeps it (the same
	// rule: a — the paper's construct; b — an internal/apps kernel or a
	// forcemark probe calls it; g — generated code or the closure compiler
	// calls it).  All are adapters over core.openSpans, so the list may
	// only shrink: a new spelling fails here, and so does a row whose
	// method is gone.
	doalls := map[string]string{
		"PreschedDo":       "a (Presched DO) · b (gauss, forcemark's presched probe)",
		"SelfschedDo":      "a (Selfsched DO, the expansion listing) · b (forcemark's selfsched probe)",
		"PreschedDo2":      "a (doubly nested loops, §3.3)",
		"DoAll2":           "a (doubly nested loops under a chosen discipline: the tree walker, core.Conformance)",
		"DoAll":            "b (matmul, gauss, nbody pick the discipline per call; jacobi, sor and histogram name one)",
		"DoAllChunked":     "g (every emitted Presched DO) · b (scan, forcemark's span probes)",
		"DoAllGranted":     "g (every emitted Selfsched DO, every closed span loop of the closure compiler) · b (histogram)",
		"DoAllChunkedOpen": "g (the members of a fused region, a DOALL whose exit a Barrier rides)",
	}
	spelling := regexp.MustCompile(`^(DoAll|Presched\w*Do|Selfsched\w*Do|ChunkDo)`)
	procT := reflect.TypeOf((*core.Proc)(nil))
	for i := 0; i < procT.NumMethod(); i++ {
		name := procT.Method(i).Name
		if !spelling.MatchString(name) {
			continue
		}
		if _, ok := doalls[name]; !ok {
			t.Errorf("core.Proc.%s: a DOALL entry point outside the inventory (state what keeps it, or fold it into an existing one)", name)
		}
		delete(doalls, name)
	}
	for name, why := range doalls {
		t.Errorf("core.Proc.%s is gone: delete its inventory row (%s)", name, why)
	}
}

// TestUsageErrors drives the command-line rejections through the real
// binaries: a force size below 1 (one identical line and exit 2 on both
// tiers — the native tier must not hand it to a cached binary that would
// panic), a removed variant or tier spelling, and a removed flag.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs forcerun and forcec with the go toolchain")
	}
	forcerun := buildForcerun(t)
	forcec := buildTool(t, "./cmd/forcec")
	prog := filepath.Join("examples", "forcefile", "heat.force")
	env := []string{"FORCE_CACHE=" + t.TempDir()}
	oneLine := func(t *testing.T, out string) {
		t.Helper()
		if strings.Count(out, "\n") != 1 || strings.Contains(out, "goroutine ") {
			t.Errorf("want exactly one line and no stack trace, got:\n%s", out)
		}
	}

	for _, np := range []string{"0", "-3"} {
		want := "forcerun: invalid -np " + np + ": a force needs at least one process\n"
		for _, tier := range []string{"chunked", "aot"} {
			out, code := runForcerunEnv(t, time.Minute, env, forcerun, "-np", np, "-exec", tier, prog)
			if code != 2 || out != want {
				t.Errorf("forcerun -np %s -exec %s: exit %d, output %q; want exit 2, %q", np, tier, code, out, want)
			}
		}
		out, code := runForcerun(t, time.Minute, forcec, "-go", "-np", np, prog)
		if want := strings.Replace(want, "forcerun:", "forcec:", 1); code != 2 || out != want {
			t.Errorf("forcec -go -np %s: exit %d, output %q; want exit 2, %q", np, code, out, want)
		}
	}

	for _, tc := range []struct {
		flag, removed string
		accepted      []string
	}{
		{"-barrier", "cond", []string{"twolock", "sense"}},
		{"-reduce", "tree", []string{"critical", "slots"}},
		{"-selfsched", "stealing", []string{"selfsched-lock", "selfsched-atomic", "selfsched-chunk"}},
		{"-exec", "auto", []string{"chunked", "aot"}},
		{"-exec", "tree", []string{"chunked", "aot"}},
		{"-exec", "compiled", []string{"chunked", "aot"}},
	} {
		out, code := runForcerun(t, time.Minute, forcerun, tc.flag, tc.removed, prog)
		if code == 0 {
			t.Errorf("forcerun %s %s: accepted a removed spelling:\n%s", tc.flag, tc.removed, out)
		}
		for _, a := range tc.accepted {
			if !strings.Contains(out, a) {
				t.Errorf("forcerun %s %s: error does not name %q: %s", tc.flag, tc.removed, a, out)
			}
		}
		oneLine(t, out)
	}

	// Removed flags are unknown flags: the flag package's exit 2.
	for _, args := range [][]string{
		{forcerun, "-fuse", "off"},
		{forcerun, "-chunk", "8"},
		{forcec, "-go", "-chunk", "8"},
	} {
		out, code := runForcerun(t, time.Minute, args[0], append(args[1:], prog)...)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+args[len(args)-2]) {
			t.Errorf("%s %s: exit %d, output %q; want exit 2 for an unknown flag", filepath.Base(args[0]), strings.Join(args[1:], " "), code, out)
		}
	}
}
