package shm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		CompileTime:      "compile-time",
		LinkTime:         "link-time",
		RunTimePadded:    "run-time-padded",
		RunTimePageStart: "run-time-page-start",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	if got := Policy(9).String(); got != "shm.Policy(9)" {
		t.Errorf("unknown policy String() = %q", got)
	}
}

func TestNewArenaValidation(t *testing.T) {
	for _, bad := range []struct{ page, base int }{{0, 0}, {-1, 0}, {64, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArena(%d,%d) did not panic", bad.page, bad.base)
				}
			}()
			NewArena(RunTimePadded, bad.page, bad.base)
		}()
	}
}

func TestRegisterValidation(t *testing.T) {
	a := NewArena(RunTimePadded, 64, 0)
	if err := a.Register("m", Decl{Name: "x", Shared: true, Size: 0}); err == nil {
		t.Error("zero-size decl accepted")
	}
	if err := a.Register("m", Decl{Name: "", Shared: true, Size: 4}); err == nil {
		t.Error("unnamed decl accepted")
	}
	if err := a.Register("m", Decl{Name: "x", Shared: true, Size: 4}); err != nil {
		t.Errorf("valid decl rejected: %v", err)
	}
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("m2", Decl{Name: "y", Size: 4}); err == nil {
		t.Error("Register after Finalize accepted")
	}
	if err := a.Finalize(); err == nil {
		t.Error("double Finalize accepted")
	}
}

// layoutArena builds a representative mixed-module program.
func layoutArena(t *testing.T, p Policy, page, base int) *Arena {
	t.Helper()
	a := NewArena(p, page, base)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Register("main",
		Decl{Name: "A", Shared: true, Size: 100},
		Decl{Name: "I", Size: 8},
		Decl{Name: "V", Shared: true, Size: 8},
	))
	must(a.Register("sub1",
		Decl{Name: "B", Shared: true, Size: 33},
		Decl{Name: "T", Size: 16},
	))
	if p == LinkTime {
		a.LinkerCommands()
	}
	must(a.Finalize())
	return a
}

func TestSeparationAllPolicies(t *testing.T) {
	for _, p := range []Policy{CompileTime, LinkTime, RunTimePadded, RunTimePageStart} {
		for _, base := range []int{0, 1, 63, 64, 1000} {
			a := layoutArena(t, p, 64, base)
			if err := a.CheckSeparation(); err != nil {
				t.Errorf("%v base=%d: %v", p, base, err)
			}
		}
	}
}

func TestAlliantSharedAreaPageAligned(t *testing.T) {
	a := layoutArena(t, RunTimePageStart, 128, 37)
	lo, _ := a.SharedSpan()
	if lo%128 != 0 {
		t.Errorf("Alliant shared area starts at %d, not page-aligned", lo)
	}
}

func TestEncorePaddingBothEnds(t *testing.T) {
	a := layoutArena(t, RunTimePadded, 64, 37)
	lo, hi := a.SharedSpan()
	if lo%64 != 0 || hi%64 != 0 {
		t.Errorf("Encore shared span [%d,%d) not page-padded at both ends", lo, hi)
	}
	// Private data must start at or after hi.
	for _, r := range a.Regions() {
		if !r.Shared && r.Addr < hi {
			t.Errorf("private %s.%s at %d inside padded span [%d,%d)", r.Module, r.Name, r.Addr, lo, hi)
		}
	}
}

func TestCompileTimeNoPadding(t *testing.T) {
	a := layoutArena(t, CompileTime, 64, 37)
	lo, hi := a.SharedSpan()
	if lo != 37 {
		t.Errorf("compile-time shared area starts at %d, want base 37", lo)
	}
	if want := 37 + 100 + 8 + 33; hi != want {
		t.Errorf("compile-time shared area ends at %d, want %d", hi, want)
	}
}

func TestLinkTimeRequiresFirstPass(t *testing.T) {
	a := NewArena(LinkTime, 64, 0)
	if err := a.Register("main", Decl{Name: "A", Shared: true, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.Finalize(); err == nil {
		t.Fatal("link-time Finalize without LinkerCommands accepted")
	} else if !strings.Contains(err.Error(), "two Sequent runs") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestLinkerCommands(t *testing.T) {
	a := NewArena(LinkTime, 64, 0)
	a.Register("main", Decl{Name: "A", Shared: true, Size: 100}, Decl{Name: "I", Size: 8})
	a.Register("sub", Decl{Name: "V", Shared: true, Size: 8})
	cmds := a.LinkerCommands()
	want := []string{"-shared main.A,100", "-shared sub.V,8"}
	if len(cmds) != len(want) {
		t.Fatalf("LinkerCommands = %v, want %v", cmds, want)
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Errorf("cmd[%d] = %q, want %q", i, cmds[i], want[i])
		}
	}
	// Non-link-time arenas have no linker involvement.
	b := NewArena(RunTimePadded, 64, 0)
	b.Register("main", Decl{Name: "A", Shared: true, Size: 4})
	if got := b.LinkerCommands(); got != nil {
		t.Errorf("RunTimePadded LinkerCommands = %v, want nil", got)
	}
}

func TestLookupAndRegions(t *testing.T) {
	a := layoutArena(t, RunTimePadded, 64, 0)
	r, ok := a.Lookup("sub1", "B")
	if !ok {
		t.Fatal("Lookup(sub1.B) failed")
	}
	if r.Size != 33 || !r.Shared {
		t.Errorf("Lookup(sub1.B) = %+v", r)
	}
	if _, ok := a.Lookup("sub1", "missing"); ok {
		t.Error("Lookup of missing name succeeded")
	}
	regs := a.Regions()
	if len(regs) != 5 {
		t.Fatalf("Regions() has %d entries, want 5", len(regs))
	}
	// Shared regions come first and are contiguous.
	if !regs[0].Shared || !regs[1].Shared || !regs[2].Shared {
		t.Error("shared regions not placed first")
	}
	if regs[1].Addr != regs[0].End() || regs[2].Addr != regs[1].End() {
		t.Error("shared regions not contiguous")
	}
}

func TestCheckSeparationBeforeFinalize(t *testing.T) {
	a := NewArena(RunTimePadded, 64, 0)
	if err := a.CheckSeparation(); err == nil {
		t.Error("CheckSeparation before Finalize accepted")
	}
}

func TestStartupChain(t *testing.T) {
	a := NewArena(RunTimePadded, 64, 0)
	c := NewStartupChain(a)
	if err := c.Startup("main", Decl{Name: "A", Shared: true, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Startup("sub1", Decl{Name: "B", Shared: true, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Startup("sub2", Decl{Name: "P", Size: 8}); err != nil {
		t.Fatal(err)
	}
	calls := c.Calls()
	want := []string{"main", "sub1", "sub2"}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("Calls() = %v, want %v", calls, want)
		}
	}
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckSeparation(); err != nil {
		t.Error(err)
	}
}

// Property: for random declaration mixes, bases and page sizes, every
// policy produces a layout that passes CheckSeparation.
func TestQuickSeparation(t *testing.T) {
	prop := func(policyIdx uint8, baseRaw uint16, sizes []uint8, classes []uint8) bool {
		policies := []Policy{CompileTime, LinkTime, RunTimePadded, RunTimePageStart}
		p := policies[int(policyIdx)%len(policies)]
		page := 64
		a := NewArena(p, page, int(baseRaw)%500)
		n := len(sizes)
		if len(classes) < n {
			n = len(classes)
		}
		for i := 0; i < n; i++ {
			size := int(sizes[i])%200 + 1
			shared := classes[i]%3 != 0
			if err := a.Register("m", Decl{Name: fmt.Sprintf("v%d", i), Shared: shared, Size: size}); err != nil {
				return false
			}
		}
		if p == LinkTime {
			a.LinkerCommands()
		}
		if err := a.Finalize(); err != nil {
			return false
		}
		return a.CheckSeparation() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageMap(t *testing.T) {
	a := NewArena(RunTimePadded, 64, 0)
	if a.PageMap() != "" {
		t.Error("PageMap before Finalize should be empty")
	}
	// 100 bytes shared (2 pages, second partially padding), 8 private.
	a.Register("m",
		Decl{Name: "A", Shared: true, Size: 100},
		Decl{Name: "I", Size: 8},
	)
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := a.PageMap()
	if got != "SSP" {
		t.Errorf("PageMap = %q, want SSP (two shared pages then a private page)", got)
	}
	// No page mixes shared and private markers by construction.
	for _, c := range got {
		if c != 'S' && c != 'P' && c != 'p' && c != '.' {
			t.Errorf("unexpected page marker %q", string(c))
		}
	}
}

func TestPageMapShowsPadding(t *testing.T) {
	// 8 shared bytes in a 64-byte page: the rest of the page is padding
	// ('p' only when no region touches it — here A covers page 0, so we
	// need a second page of pure padding; use page-start policy with a
	// shared size that leaves a padding tail page).
	a := NewArena(RunTimePadded, 64, 0)
	a.Register("m", Decl{Name: "A", Shared: true, Size: 65}) // pages 0-1
	a.Register("m", Decl{Name: "Q", Size: 4})
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := a.PageMap()
	if got != "SSP" {
		t.Errorf("PageMap = %q, want SSP", got)
	}
}

func TestPageMapEmptyArena(t *testing.T) {
	a := NewArena(CompileTime, 64, 0)
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := a.PageMap(); got != "" {
		t.Errorf("empty arena PageMap = %q", got)
	}
}

// TestLookupIndexed exercises the Finalize-built lookup index: hits
// across modules (including the same variable name registered by two
// modules), misses, and the unfinalized arena.
func TestLookupIndexed(t *testing.T) {
	a := NewArena(RunTimePadded, 64, 10)
	if _, ok := a.Lookup("main", "X"); ok {
		t.Error("Lookup before Finalize returned a region")
	}
	if err := a.Register("main",
		Decl{Name: "X", Shared: true, Size: 8},
		Decl{Name: "Y", Size: 16},
	); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("sub",
		Decl{Name: "X", Shared: true, Size: 24},
		Decl{Name: "Q", Shared: true, Size: 8},
	); err != nil {
		t.Fatal(err)
	}
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		module, name string
		size         int
		shared       bool
	}{
		{"main", "X", 8, true},
		{"main", "Y", 16, false},
		{"sub", "X", 24, true},
		{"sub", "Q", 8, true},
	} {
		r, ok := a.Lookup(tc.module, tc.name)
		if !ok {
			t.Fatalf("Lookup(%s, %s) missed", tc.module, tc.name)
		}
		if r.Size != tc.size || r.Shared != tc.shared {
			t.Errorf("Lookup(%s, %s) = size %d shared %v, want size %d shared %v",
				tc.module, tc.name, r.Size, r.Shared, tc.size, tc.shared)
		}
		// The indexed result must be the placed region.
		found := false
		for _, reg := range a.Regions() {
			if reg.Module == tc.module && reg.Name == tc.name && reg.Addr == r.Addr {
				found = true
			}
		}
		if !found {
			t.Errorf("Lookup(%s, %s) returned an unplaced region", tc.module, tc.name)
		}
	}
	if _, ok := a.Lookup("main", "NOPE"); ok {
		t.Error("Lookup of an unregistered name succeeded")
	}
	if _, ok := a.Lookup("ghost", "X"); ok {
		t.Error("Lookup of an unregistered module succeeded")
	}
}

// BenchmarkLookup measures the indexed decl lookup (formerly a linear
// scan over every region).
func BenchmarkLookup(b *testing.B) {
	a := NewArena(CompileTime, 64, 0)
	for m := 0; m < 16; m++ {
		mod := fmt.Sprintf("m%d", m)
		decls := make([]Decl, 64)
		for i := range decls {
			decls[i] = Decl{Name: fmt.Sprintf("V%d", i), Shared: true, Size: 8}
		}
		if err := a.Register(mod, decls...); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.Finalize(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Lookup("m15", "V63"); !ok {
			b.Fatal("miss")
		}
	}
}
