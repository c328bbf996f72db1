package poisoncheck

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestRepositoryIsClean runs the full linter over the real tree: the
// runtime must satisfy its own fault-containment invariants.
func TestRepositoryIsClean(t *testing.T) {
	findings, err := Run("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func checkSrc(t *testing.T, src string, rules Rules) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return CheckFile(fset, file, rules)
}

func testSites() map[string]bool {
	return map[string]bool{
		"barrier.enter": true, "$BarrierEnter": true,
	}
}

func TestSpinloopUnboundedWithoutPoison(t *testing.T) {
	src := `package p
func bad() {
	for {
		if ready() { return }
		runtime.Gosched()
	}
}`
	got := checkSrc(t, src, Rules{Spinloop: true})
	if len(got) != 1 || got[0].Rule != "spinloop" {
		t.Errorf("want one spinloop finding, got %v", got)
	}
}

func TestSpinloopObservingPoisonIsClean(t *testing.T) {
	src := `package p
func ok() {
	for {
		pc.Check()
		if ready() { return }
		runtime.Gosched()
	}
}`
	if got := checkSrc(t, src, Rules{Spinloop: true}); len(got) != 0 {
		t.Errorf("poison-observing loop flagged: %v", got)
	}
}

func TestSpinloopDoneReceiveIsClean(t *testing.T) {
	src := `package p
func ok() {
	for !stop {
		select {
		case <-pc.Done():
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
}`
	if got := checkSrc(t, src, Rules{Spinloop: true}); len(got) != 0 {
		t.Errorf("Done-receiving loop flagged: %v", got)
	}
}

func TestSpinloopLiterallyBoundedIsClean(t *testing.T) {
	src := `package p
func ok() {
	for attempt := 0; attempt < 2; attempt++ {
		runtime.Gosched()
	}
}`
	if got := checkSrc(t, src, Rules{Spinloop: true}); len(got) != 0 {
		t.Errorf("bounded retry loop flagged: %v", got)
	}
}

// A loop that pauses the CPU between polls (the wait policy's relax) is a
// wait loop like one that yields: clean only if it observes poison too.
// The literally-bounded exemption is what it was — an identifier against
// an integer literal — so a relaxing loop bounded by a named constant must
// observe poison like any other.
func TestSpinloopRelaxingLoop(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		findings   int
	}{
		{"relax without poison", `for i := 0; i < relaxPolls; i++ { if pred() { return }; relax(8) }`, 1},
		{"relax observing poison", `for i := 0; i < relaxPolls; i++ { if pred() { return }; c.Check(); relax(8) }`, 0},
		{"relax, literally bounded", `for i := 0; i < 24; i++ { if pred() { return }; relax(8) }`, 0},
		{"unbounded relax", `for { if pred() { return }; relax(8) }`, 1},
	} {
		got := checkSrc(t, "package p\nfunc f() {\n"+tc.body+"\n}", Rules{Spinloop: true})
		if len(got) != tc.findings {
			t.Errorf("%s: %d findings, want %d: %v", tc.name, len(got), tc.findings, got)
		}
	}
}

func TestSpinloopNonYieldingLoopIgnored(t *testing.T) {
	// Unbounded loops that never yield are structure-building loops
	// with breaks, not waits; they are out of scope.
	src := `package p
func ok() {
	for {
		if done() { break }
		n = n * 2
	}
}`
	if got := checkSrc(t, src, Rules{Spinloop: true}); len(got) != 0 {
		t.Errorf("non-yielding loop flagged: %v", got)
	}
}

func TestSelectWithoutDoneCase(t *testing.T) {
	src := `package p
func bad() {
	select {
	case v := <-ch:
		use(v)
	}
}`
	got := checkSrc(t, src, Rules{Select: true})
	if len(got) != 1 || got[0].Rule != "select" {
		t.Errorf("want one select finding, got %v", got)
	}
}

func TestSelectWithDoneCaseIsClean(t *testing.T) {
	src := `package p
func ok() {
	select {
	case v := <-ch:
		use(v)
	case <-pc.Done():
		pc.Check()
	}
}`
	if got := checkSrc(t, src, Rules{Select: true}); len(got) != 0 {
		t.Errorf("Done-carrying select flagged: %v", got)
	}
}

func TestSelectWithDefaultIsClean(t *testing.T) {
	src := `package p
func ok() {
	select {
	case <-ch:
	default:
	}
}`
	if got := checkSrc(t, src, Rules{Select: true}); len(got) != 0 {
		t.Errorf("non-blocking select flagged: %v", got)
	}
}

func TestFireSiteConstant(t *testing.T) {
	src := `package p
func ok() {
	faultinject.Fire(faultinject.BarrierEnter, pid, pc)
}`
	if got := checkSrc(t, src, Rules{FireSites: testSites()}); len(got) != 0 {
		t.Errorf("registered constant flagged: %v", got)
	}
}

func TestFireSiteUnknownConstant(t *testing.T) {
	src := `package p
func bad() {
	faultinject.Fire(faultinject.Bogus, pid, pc)
}`
	got := checkSrc(t, src, Rules{FireSites: testSites()})
	if len(got) != 1 || got[0].Rule != "firesite" {
		t.Errorf("want one firesite finding, got %v", got)
	}
}

func TestFireSiteStringLiteral(t *testing.T) {
	ok := `package p
func ok() { faultinject.FireErr("barrier.enter", nil) }`
	if got := checkSrc(t, ok, Rules{FireSites: testSites()}); len(got) != 0 {
		t.Errorf("registered literal flagged: %v", got)
	}
	bad := `package p
func bad() { faultinject.FireErr("barrier.typo", nil) }`
	got := checkSrc(t, bad, Rules{FireSites: testSites()})
	if len(got) != 1 || got[0].Rule != "firesite" {
		t.Errorf("want one firesite finding, got %v", got)
	}
}

func TestFireSiteComputedValue(t *testing.T) {
	src := `package p
func bad() { faultinject.Fire(siteFor(kind), pid, pc) }`
	got := checkSrc(t, src, Rules{FireSites: testSites()})
	if len(got) != 1 || got[0].Rule != "firesite" {
		t.Errorf("want one firesite finding, got %v", got)
	}
}

// TestLoadSites checks the registry parser against the real faultinject
// package: all 16 sites, by value and by constant name.
func TestLoadSites(t *testing.T) {
	sites, err := loadSites("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"barrier.enter", "$BarrierEnter", "aot.exec", "$AOTExec", "engine.park", "$EnginePark", "fuse.join", "$FusedJoin"} {
		if !sites[want] {
			t.Errorf("missing site %q", want)
		}
	}
	values := 0
	for k := range sites {
		if k[0] != '$' {
			values++
		}
	}
	if values != 16 {
		t.Errorf("found %d site values, want 16", values)
	}
}
