// Package faultinject is the runtime's chaos harness: a registry of
// named injection sites threaded through every hot blocking point of
// the Force runtime (barrier enter/section/exit, reduce
// contribute/combine/release, asynchronous-variable
// produce/consume/copy, askfor put/take, engine park/steal/hand-raid,
// aot build/exec), and a small set of injectors — panic, fixed delay,
// stall-forever — selected by a seeded deterministic plan.
//
// The point is to PROVE the fault-containment and cancellation
// properties instead of asserting them: the chaos sweep (chaos_test.go
// at the repository root, CI's chaos job) runs the acceptance corpus
// with one injection armed per site and requires, within a hard
// deadline, either byte-identical correct output or a clean abort
// carrying the injected first failure — never a deadlock, never a
// silently wrong answer.  That is the robustness scoreboard a
// multi-tenant forced daemon needs before it can cancel arbitrary
// tenants' Runs on request.
//
// Injection is OFF by default and gated by one package-level atomic: a
// disabled Fire is a single atomic load and a predictable branch, so
// the hooks can live on hot paths permanently (the same trick as the
// race detector's annotations).  Plans come from the FORCE_FAULTS
// environment variable (forcerun arms it at startup) or from the
// programmatic API (Enable/Disable); both are process-global, so tests
// arming plans must not run in parallel with each other.
//
// Plan syntax (FORCE_FAULTS):
//
//	spec     = entry *("," entry)
//	entry    = "seed=" int | site "=" kind ["/" arg]...
//	kind     = "panic" | "delay" | "stall"
//	arg      = duration           (delay length, default 2ms)
//	         | "after=" int       (skip the first N hits of the site)
//	         | "pid=" int         (fire only in force process P; needs the
//	                               caller to pass a pid, else ignored)
//
// Example: FORCE_FAULTS="seed=7,barrier.enter=panic,askfor.take=stall"
// When "after" is not given it is derived deterministically from the
// seed and the site name, so one seed pins the whole sweep's timing
// without hand-placing every injection.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/poison"
)

// The injection sites, one per hot blocking point of the runtime.  The
// site name is the FORCE_FAULTS key and the chaos sweep's coordinate.
const (
	BarrierEnter   = "barrier.enter"   // core.Proc.Barrier*, before the Sync
	BarrierSection = "barrier.section" // inside the single-process barrier section
	BarrierExit    = "barrier.exit"    // core.Proc.Barrier*, after the Sync
	ReduceContrib  = "reduce.contribute"
	ReduceCombine  = "reduce.combine" // inside the combining function
	ReduceRelease  = "reduce.release" // a waiter about to await the episode result
	AsyncProduce   = "async.produce"
	AsyncConsume   = "async.consume"
	AsyncCopy      = "async.copy"
	AskforPut      = "askfor.put"
	AskforTake     = "askfor.take"
	EnginePark     = "engine.park"  // an askfor worker about to wait for tasks
	EngineSteal    = "engine.steal" // an askfor worker about to look at other processes' stacks
	AOTBuild       = "aot.build"    // the native tier's go-build cold path
	AOTExec        = "aot.exec"     // about to exec the cached native binary
	FusedJoin      = "fuse.join"    // the single collective closing a fused DOALL+reduction
)

// Sites lists every injection site, in sweep order.
var Sites = []string{
	BarrierEnter, BarrierSection, BarrierExit,
	ReduceContrib, ReduceCombine, ReduceRelease,
	AsyncProduce, AsyncConsume, AsyncCopy,
	AskforPut, AskforTake,
	EnginePark, EngineSteal,
	AOTBuild, AOTExec,
	FusedJoin,
}

// Kind selects an injector.
type Kind int

const (
	// Panic panics with *Error at the site — the "a process died right
	// here" fault.  The poison protocol must turn it into a clean
	// whole-force abort carrying this exact failure.
	Panic Kind = iota
	// Delay sleeps the process at the site — the "one process is slow"
	// fault.  The run must still produce correct output.
	Delay
	// Stall blocks the process at the site until the force is poisoned
	// (or the plan is disabled) — the "a process hung forever" fault.
	// Only external cancellation (a context deadline) can end such
	// a run; the stalled process then unwinds like any poisoned waiter.
	Stall
)

// String returns the kind's FORCE_FAULTS spelling.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("faultinject.Kind(%d)", int(k))
	}
}

// Kinds lists the injectors in sweep order.
func Kinds() []Kind { return []Kind{Panic, Delay, Stall} }

// ParseKind converts a FORCE_FAULTS spelling into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return Panic, nil
	case "delay":
		return Delay, nil
	case "stall":
		return Stall, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown injector %q (want panic, delay or stall)", s)
	}
}

// Error is the panic value (and aot-path error value) of the Panic
// injector: a distinguished type so the chaos harness — and
// interp.Run's recover — can tell an injected fault from a genuine
// runtime bug.
type Error struct {
	Site string
	Hit  int // which hit of the site fired (1-based)
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault injected at %s (hit %d)", e.Site, e.Hit)
}

// Injection arms one site.
type Injection struct {
	Site  string
	Kind  Kind
	Delay time.Duration // Delay injector only; 0 means 2ms
	// After skips the first After hits of the site before firing (the
	// seeded plan's placement knob).  Negative means "derive from the
	// plan seed and the site name".
	After int
	// Pid restricts the injection to one force process; -1 (the
	// default in NewPlan/parsing) fires in whichever process hits the
	// chosen occurrence.  Sites fired without pid information (aot
	// build/exec run on the driver) ignore the restriction.
	Pid int
}

// armed is one site's live state: the spec plus the hit counter.  Each
// injection fires exactly once — chaos cases assert one fault, not a
// fault storm — so `fired` latches.
type armed struct {
	inj   Injection
	hits  atomic.Int64
	fired atomic.Bool
}

// Plan is an armed set of injections.  Build one with NewPlan/Add or
// ParseSpec, then install it with Enable.
type Plan struct {
	seed  int64
	sites map[string]*armed
}

// NewPlan creates an empty plan with the given seed.  The seed
// deterministically places injections whose After is negative.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, sites: map[string]*armed{}}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// Add arms one injection (replacing any previous one for the site) and
// returns the plan for chaining.  An After < 0 is resolved now, from
// the seed and the site name, so the placement is deterministic per
// (seed, site) and independent of arming order.
func (p *Plan) Add(inj Injection) *Plan {
	if !knownSite(inj.Site) {
		panic(fmt.Sprintf("faultinject: unknown site %q", inj.Site))
	}
	if inj.After < 0 {
		inj.After = seededAfter(p.seed, inj.Site)
	}
	if inj.Kind == Delay && inj.Delay <= 0 {
		inj.Delay = 2 * time.Millisecond
	}
	p.sites[inj.Site] = &armed{inj: inj}
	return p
}

// Fired reports whether the plan's injection at site has fired.
func (p *Plan) Fired(site string) bool {
	a := p.sites[site]
	return a != nil && a.fired.Load()
}

// FiredAny reports whether any injection of the plan has fired.
func (p *Plan) FiredAny() bool {
	for _, a := range p.sites {
		if a.fired.Load() {
			return true
		}
	}
	return false
}

func knownSite(s string) bool {
	for _, k := range Sites {
		if k == s {
			return true
		}
	}
	return false
}

// seededAfter derives a deterministic skip count in [0, 4) from the
// seed and the site name, so one seed places every site's injection.
func seededAfter(seed int64, site string) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", seed, site)
	return int(h.Sum64() % 4)
}

// ParseSpec parses a FORCE_FAULTS plan specification (see the package
// comment for the grammar).
func ParseSpec(spec string) (*Plan, error) {
	entries := []string{}
	for _, e := range strings.Split(spec, ",") {
		if e = strings.TrimSpace(e); e != "" {
			entries = append(entries, e)
		}
	}
	// First pass: the seed, so placement is independent of entry order.
	var seed int64
	for _, e := range entries {
		if v, ok := strings.CutPrefix(e, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", v)
			}
			seed = n
		}
	}
	p := NewPlan(seed)
	for _, e := range entries {
		if strings.HasPrefix(e, "seed=") {
			continue
		}
		site, rest, ok := strings.Cut(e, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad entry %q (want site=kind[/arg]...)", e)
		}
		if !knownSite(site) {
			return nil, fmt.Errorf("faultinject: unknown site %q", site)
		}
		args := strings.Split(rest, "/")
		kind, err := ParseKind(args[0])
		if err != nil {
			return nil, err
		}
		inj := Injection{Site: site, Kind: kind, After: -1, Pid: -1}
		for _, a := range args[1:] {
			switch {
			case strings.HasPrefix(a, "after="):
				n, err := strconv.Atoi(a[len("after="):])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: bad after %q", a)
				}
				inj.After = n
			case strings.HasPrefix(a, "pid="):
				n, err := strconv.Atoi(a[len("pid="):])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: bad pid %q", a)
				}
				inj.Pid = n
			default:
				d, err := time.ParseDuration(a)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("faultinject: bad injector argument %q", a)
				}
				inj.Delay = d
			}
		}
		p.Add(inj)
	}
	return p, nil
}

// The global gate: an atomic bool consulted first by every Fire, so a
// disabled harness costs the hot paths one predictable load.  The plan
// itself travels in an atomic pointer; Enable/Disable are the only
// writers.
var (
	gate atomic.Bool
	cur  atomic.Pointer[Plan]
)

// Enabled reports whether a plan is installed.
func Enabled() bool { return gate.Load() }

// Enable installs the plan process-wide.  A nil plan disables.
func Enable(p *Plan) {
	if p == nil {
		Disable()
		return
	}
	cur.Store(p)
	gate.Store(true)
}

// Disable removes the installed plan.  Stalled processes whose stall
// watches the plan (nil-cell sites) resume; stalls inside a poisoned
// force have already unwound.
func Disable() {
	gate.Store(false)
	cur.Store(nil)
}

// Fire is the hot-path hook: a no-op (one atomic load) unless a plan is
// enabled and arms this site.  pid is the firing force process (-1 when
// the caller has no process identity); c is the force's poison cell,
// which a Stall watches so a stalled process still unwinds when the
// force is cancelled or a peer fails.  May panic with *Error (Panic
// injector) or poison.Abort (a Stall ended by poison).
func Fire(site string, pid int, c *poison.Cell) {
	if !gate.Load() {
		return
	}
	fire(site, pid, c)
}

// FireErr is Fire for error-returning paths (the aot tier): the Panic
// injector returns *Error instead of panicking, Delay sleeps, and
// Stall blocks until the plan is disabled or the cell (possibly nil)
// poisons, then reports the stall as an error.
func FireErr(site string, c *poison.Cell) error {
	if !gate.Load() {
		return nil
	}
	return fireErr(site, c)
}

// take claims the site's injection if this (pid, hit) is the chosen
// occurrence.  The hit counter advances on every call so "after" counts
// real traffic; the fired latch makes each injection one-shot.
func take(site string, pid int) (*Plan, *armed, int) {
	p := cur.Load()
	if p == nil {
		return nil, nil, 0
	}
	a := p.sites[site]
	if a == nil || a.fired.Load() {
		return nil, nil, 0
	}
	if a.inj.Pid >= 0 && pid >= 0 && pid != a.inj.Pid {
		return nil, nil, 0
	}
	hit := int(a.hits.Add(1))
	if hit != a.inj.After+1 {
		return nil, nil, 0
	}
	if !a.fired.CompareAndSwap(false, true) {
		return nil, nil, 0
	}
	return p, a, hit
}

func fire(site string, pid int, c *poison.Cell) {
	p, a, hit := take(site, pid)
	if a == nil {
		return
	}
	switch a.inj.Kind {
	case Panic:
		panic(&Error{Site: site, Hit: hit})
	case Delay:
		time.Sleep(a.inj.Delay)
	case Stall:
		// Block like a lost waiter: poison (external cancel or a peer's
		// failure) unwinds us with poison.Abort via poison.Wait; a
		// disabled/replaced plan releases us to resume normally, so a
		// harness tearing down after a failed case cannot leak a
		// goroutine forever.
		poison.Wait(c, func() bool { return cur.Load() != p })
	}
}

func fireErr(site string, c *poison.Cell) error {
	p, a, hit := take(site, -1)
	if a == nil {
		return nil
	}
	switch a.inj.Kind {
	case Panic:
		return &Error{Site: site, Hit: hit}
	case Delay:
		time.Sleep(a.inj.Delay)
		return nil
	case Stall:
		released := func() bool { return cur.Load() != p }
		if c != nil {
			// Unwind-free variant of the stall: wait out the poison (or
			// the plan) and surface the cancellation as an error.
			for !released() && !c.Poisoned() {
				time.Sleep(time.Millisecond)
			}
			if err := c.Err(); err != nil {
				return err
			}
			return nil
		}
		for !released() {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	return nil
}
