// Package shm simulates the shared-memory designation layer of the Force's
// machine-dependent implementation (paper §4.1.2).
//
// The six host machines differed in *when* and *how* memory became shared:
//
//   - Flex/32 and HEP: variables are declared shared at compile time — the
//     preprocessor strips the word "shared" and places shared/async
//     variables in COMMON areas shared between processes;
//   - Sequent Balance: sharing happens at link time — every program module
//     gets a startup routine naming its shared variables, the main
//     program's startup calls each of them, and a first run emits linker
//     commands that a shell pipes into the real link-and-run;
//   - Encore Multimax: sharing happens at run time — shared variables are
//     stored in shared pages, and the Force "calculat[es] the address of
//     shared pages and padd[s] the extra space at the beginning and the
//     end of the shared area to ensure separation of shared and private
//     declarations";
//   - Alliant FX/8: like the Encore "except that all sharing must start at
//     the beginning of a page".
//
// This package models that layer with a symbolic address arena: modules
// register declarations, a startup chain mimics the generated startup
// routines, Finalize lays memory out under the machine's policy, and
// CheckSeparation verifies the property the padding exists to provide —
// no page contains both shared and private data.
package shm

import (
	"fmt"
	"sort"
)

// Policy is a machine's sharing mechanism.
type Policy int

const (
	// CompileTime sharing (HEP, Flex/32): shared declarations are placed
	// in COMMON areas at compile time; every module is self-contained and
	// no page padding is required because the hardware shares all memory.
	CompileTime Policy = iota
	// LinkTime sharing (Sequent): the linker must be given the names of
	// all shared variables; the model requires the two-pass protocol
	// (LinkerCommands before Finalize) and page-aligns the shared area.
	LinkTime
	// RunTimePadded sharing (Encore): the shared area may start anywhere;
	// the implementation pads to page boundaries at both ends.
	RunTimePadded
	// RunTimePageStart sharing (Alliant): as RunTimePadded, but the
	// shared area must begin exactly at a page boundary.
	RunTimePageStart
)

// String returns the policy's short name.
func (p Policy) String() string {
	switch p {
	case CompileTime:
		return "compile-time"
	case LinkTime:
		return "link-time"
	case RunTimePadded:
		return "run-time-padded"
	case RunTimePageStart:
		return "run-time-page-start"
	default:
		return fmt.Sprintf("shm.Policy(%d)", int(p))
	}
}

// Decl is one variable declaration contributed by a module.
type Decl struct {
	Name string
	// Shared says the variable lives in shared pages (the Force classes
	// shared and async); a private one is local to one process.
	Shared bool
	Size   int // bytes; must be positive
}

// Region is a placed declaration in the symbolic address space.
type Region struct {
	Decl
	Module string
	Addr   int
}

// End returns the first address past the region.
func (r Region) End() int { return r.Addr + r.Size }

// Arena is a symbolic address-space model for one Force program on one
// machine.  Usage: Register declarations module by module (the Force
// preprocessor's startup-routine generation), then Finalize, then query
// placements and run CheckSeparation.
type Arena struct {
	policy    Policy
	pageSize  int
	base      int // first address of the program's data segment
	modules   []string
	declsBy   map[string][]Decl
	finalized bool
	regions   []Region
	index     map[string]int // qualified name → regions index, built at Finalize
	sharedLo  int            // shared area span after Finalize (page-aligned outer bounds)
	sharedHi  int
	linkSeen  bool // LinkTime: LinkerCommands consulted (first pass done)
}

// NewArena creates an arena with the given policy and page size.  base is
// the simulated address where the program's data begins; a non-page-aligned
// base exercises the padding logic exactly as an arbitrary 1989 loader
// address did.
func NewArena(policy Policy, pageSize, base int) *Arena {
	if pageSize <= 0 {
		panic(fmt.Sprintf("shm: pageSize = %d, need > 0", pageSize))
	}
	if base < 0 {
		panic(fmt.Sprintf("shm: base = %d, need >= 0", base))
	}
	return &Arena{
		policy:   policy,
		pageSize: pageSize,
		base:     base,
		declsBy:  make(map[string][]Decl),
	}
}

// PageSize returns the arena's page size.
func (a *Arena) PageSize() int { return a.pageSize }

// Policy returns the arena's sharing policy.
func (a *Arena) Policy() Policy { return a.policy }

// Register contributes a module's declarations, in declaration order.
// Registering after Finalize is an error, mirroring the fact that the
// startup routines run before the force is created.
func (a *Arena) Register(module string, decls ...Decl) error {
	if a.finalized {
		return fmt.Errorf("shm: Register(%q) after Finalize", module)
	}
	for _, d := range decls {
		if d.Size <= 0 {
			return fmt.Errorf("shm: declaration %s.%s has size %d", module, d.Name, d.Size)
		}
		if d.Name == "" {
			return fmt.Errorf("shm: unnamed declaration in module %q", module)
		}
	}
	if _, seen := a.declsBy[module]; !seen {
		a.modules = append(a.modules, module)
	}
	a.declsBy[module] = append(a.declsBy[module], decls...)
	return nil
}

// LinkerCommands returns the per-variable commands the Sequent first pass
// produced for the linker ("the startup routine ... will provide the
// linker commands to a UNIX shell").  For LinkTime arenas this must be
// called before Finalize — the program ran twice on the Sequent, and
// skipping the first run is exactly the porting mistake the model rejects.
// For other policies it returns nil (no linker involvement).
func (a *Arena) LinkerCommands() []string {
	if a.policy != LinkTime {
		return nil
	}
	a.linkSeen = true
	var cmds []string
	for _, m := range a.modules {
		for _, d := range a.declsBy[m] {
			if d.Shared {
				cmds = append(cmds, fmt.Sprintf("-shared %s,%d", qualify(m, d.Name), d.Size))
			}
		}
	}
	return cmds
}

func qualify(module, name string) string { return module + "." + name }

// roundUp rounds x up to the next multiple of align.
func roundUp(x, align int) int { return (x + align - 1) / align * align }

// Finalize lays out every registered declaration under the policy.  Shared
// and async declarations are placed contiguously in the shared area;
// private declarations are placed after it (conceptually: in each
// process's private segment).  The shared area's outer bounds are padded
// or aligned per policy so that CheckSeparation holds by construction.
func (a *Arena) Finalize() error {
	if a.finalized {
		return fmt.Errorf("shm: Finalize called twice")
	}
	if a.policy == LinkTime && !a.linkSeen {
		return fmt.Errorf("shm: link-time sharing requires LinkerCommands (the first of the two Sequent runs) before Finalize")
	}
	a.finalized = true

	// Gather in module order, shared first.
	var shared, private []Region
	for _, m := range a.modules {
		for _, d := range a.declsBy[m] {
			r := Region{Decl: d, Module: m}
			if d.Shared {
				shared = append(shared, r)
			} else {
				private = append(private, r)
			}
		}
	}

	cursor := a.base
	switch a.policy {
	case CompileTime:
		// COMMON-area placement: shared data simply occupies the
		// front of the data segment; the machine shares everything,
		// so no alignment is needed.
	case RunTimePadded, LinkTime:
		// "Padding the extra space at the beginning ... of the shared
		// area": advance to the next page boundary so the first
		// shared page contains no earlier private data.
		cursor = roundUp(cursor, a.pageSize)
	case RunTimePageStart:
		// Alliant: "all sharing must start at the beginning of a
		// page" — identical start requirement, and we also verify it
		// below as a hard invariant.
		cursor = roundUp(cursor, a.pageSize)
	default:
		return fmt.Errorf("shm: unknown policy %d", int(a.policy))
	}

	a.sharedLo = cursor
	for i := range shared {
		shared[i].Addr = cursor
		cursor += shared[i].Size
	}
	sharedEnd := cursor
	switch a.policy {
	case CompileTime:
		a.sharedHi = sharedEnd
	default:
		// "...and the end of the shared area": pad the tail so the
		// last shared page contains no private data.
		a.sharedHi = roundUp(sharedEnd, a.pageSize)
		cursor = a.sharedHi
	}

	if a.policy == RunTimePageStart && a.sharedLo%a.pageSize != 0 {
		return fmt.Errorf("shm: internal: Alliant shared area starts at %d, not page-aligned", a.sharedLo)
	}

	for i := range private {
		private[i].Addr = cursor
		cursor += private[i].Size
	}

	a.regions = append(shared, private...)
	// Index the placements so Lookup is a map hit instead of a linear
	// scan over every region; the first registration of a qualified name
	// wins, matching the scan order the index replaces.
	a.index = make(map[string]int, len(a.regions))
	for i, r := range a.regions {
		q := qualify(r.Module, r.Name)
		if _, dup := a.index[q]; !dup {
			a.index[q] = i
		}
	}
	return nil
}

// Regions returns all placed regions (shared first, then private), valid
// after Finalize.
func (a *Arena) Regions() []Region {
	out := make([]Region, len(a.regions))
	copy(out, a.regions)
	return out
}

// Lookup returns the placed region for module.name, valid after
// Finalize (indexed: one map hit, not a scan over every region).
func (a *Arena) Lookup(module, name string) (Region, bool) {
	if i, ok := a.index[qualify(module, name)]; ok {
		return a.regions[i], true
	}
	return Region{}, false
}

// SharedSpan returns the outer bounds [lo, hi) of the shared area,
// including padding, valid after Finalize.
func (a *Arena) SharedSpan() (lo, hi int) { return a.sharedLo, a.sharedHi }

// pageOf returns the page number containing address x.
func (a *Arena) pageOf(x int) int { return x / a.pageSize }

// CheckSeparation verifies the property the Encore/Alliant padding exists
// to provide: no overlap between any two regions, every shared region lies
// within the shared span, every private region lies outside it, and — for
// the page-granular policies — no page holds both shared and private data.
// For CompileTime arenas the page condition is vacuous (hardware shares
// all of memory), but overlap checking still applies.
func (a *Arena) CheckSeparation() error {
	if !a.finalized {
		return fmt.Errorf("shm: CheckSeparation before Finalize")
	}
	// Overlap: sort by address and scan.
	rs := a.Regions()
	sort.Slice(rs, func(i, j int) bool { return rs[i].Addr < rs[j].Addr })
	for i := 1; i < len(rs); i++ {
		if rs[i].Addr < rs[i-1].End() {
			return fmt.Errorf("shm: regions %s and %s overlap",
				qualify(rs[i-1].Module, rs[i-1].Name), qualify(rs[i].Module, rs[i].Name))
		}
	}
	for _, r := range rs {
		if r.Shared {
			if r.Addr < a.sharedLo || r.End() > a.sharedHi {
				return fmt.Errorf("shm: shared region %s outside shared span", qualify(r.Module, r.Name))
			}
		} else if r.Addr < a.sharedHi && r.End() > a.sharedLo {
			return fmt.Errorf("shm: private region %s inside shared span", qualify(r.Module, r.Name))
		}
	}
	if a.policy == CompileTime {
		return nil
	}
	// Page granularity: classify each touched page.
	type use struct{ shared, private bool }
	pages := make(map[int]*use)
	for _, r := range rs {
		for p := a.pageOf(r.Addr); p <= a.pageOf(r.End()-1); p++ {
			u := pages[p]
			if u == nil {
				u = &use{}
				pages[p] = u
			}
			if r.Shared {
				u.shared = true
			} else {
				u.private = true
			}
		}
	}
	for p, u := range pages {
		if u.shared && u.private {
			return fmt.Errorf("shm: page %d holds both shared and private data", p)
		}
	}
	return nil
}

// PageMap renders the arena's page occupancy as one character per page —
// 'S' all-shared, 'P' all-private, 'p' shared-area padding, '.' untouched
// — the picture behind the Encore/Alliant padding rules.  Valid after
// Finalize.
func (a *Arena) PageMap() string {
	if !a.finalized {
		return ""
	}
	lastAddr := a.sharedHi
	for _, r := range a.regions {
		if r.End() > lastAddr {
			lastAddr = r.End()
		}
	}
	if lastAddr == 0 {
		return ""
	}
	nPages := a.pageOf(lastAddr-1) + 1
	cells := make([]byte, nPages)
	for i := range cells {
		cells[i] = '.'
	}
	// Padding: pages of the shared span not fully used by regions start
	// as 'p' and are upgraded below.
	for p := a.pageOf(a.sharedLo); a.sharedLo < a.sharedHi && p <= a.pageOf(a.sharedHi-1); p++ {
		cells[p] = 'p'
	}
	for _, r := range a.regions {
		mark := byte('P')
		if r.Shared {
			mark = 'S'
		}
		for p := a.pageOf(r.Addr); p <= a.pageOf(r.End()-1); p++ {
			cells[p] = mark
		}
	}
	return string(cells)
}

// StartupChain models the generated startup subroutines: the main
// program's startup calls the startup routine of every Force subroutine so
// that all shared declarations are known in one place (the Sequent and
// Encore mechanism).  It is a thin recorded-call harness used by the
// preprocessor tests.
type StartupChain struct {
	arena *Arena
	calls []string
}

// NewStartupChain wraps an arena.
func NewStartupChain(a *Arena) *StartupChain {
	return &StartupChain{arena: a}
}

// Startup registers a module's declarations and records the call, exactly
// one call per program segment.
func (s *StartupChain) Startup(module string, decls ...Decl) error {
	s.calls = append(s.calls, module)
	return s.arena.Register(module, decls...)
}

// Calls returns the recorded startup-call order.
func (s *StartupChain) Calls() []string {
	out := make([]string, len(s.calls))
	copy(out, s.calls)
	return out
}
