// Command forcerun parses a Force program and executes it SPMD on the
// runtime library:
//
//	forcerun [-np N] [-machine NAME] [-barrier ALG] [-selfsched KIND] [-askfor POOL] [-reduce STRAT] [-exec chunked|aot] [-v] file.force
//
// -np is the force size (default 4; below 1 is a usage error on every
// tier).  -machine selects a historical machine profile (hep, flex32,
// encore, sequent, alliant, cray2) or "native" (default); -barrier
// selects the global barrier algorithm (twolock, the paper's and the
// default, or sense); -selfsched selects the discipline executing
// Selfsched DO loops and selfscheduled Pcase (selfsched-lock, the
// paper's and the default, selfsched-atomic or selfsched-chunk); -askfor
// selects the Askfor pool ("stealing" or "monitor"); -reduce selects the
// strategy executing global reductions (GSUM and friends, on every tier,
// a reduction folded into a fused region's join included): "slots" (the
// default) or "critical" (the paper's baseline).  Any other spelling is
// an error naming the accepted ones.  A file name of "-" reads standard
// input.
//
// -exec selects the execution engine: "chunked" (the default: the
// closure compiler with the DOALL planner on — provably safe bodies are
// chunk-compiled, block-dealt and fused) or "aot" (below).  Every tier
// runs a DOALL as a loop over the spans the runtime grants each process.
// The planner's references — the same compiler with the planner off or
// with fusion off, and the original tree walker — are interp.Config
// settings the tests compare against, not -exec values.
//
// Fusion: adjacent independent DOALLs fuse into one barrier region
// (exit barriers elided between them) and a trailing global reduction
// folds into the region's closing collective; a Barrier statement
// directly behind a DOALL, a fused region or a global reduction rides
// that construct's closing collective instead of running an episode of
// its own.  Fusion only rewrites regions it can prove independent, so
// output is byte-identical to the unfused run.  With -v each fusion
// decision — what fused, what declined and why, each line rendered from
// the planner's node for the construct (plan.Node.Narrate) — is narrated
// on standard error, along with the exec tier and the selfsched-chunk
// span size for the run and, per DOALL site, how its iterations are dealt: a
// Presched DO "partition=block" (contiguous spans, taken when nothing
// can observe the iteration-to-process map) or "partition=cyclic
// (<reason>)", a Selfsched DO "grant=K" — how many iterations one claim
// takes, sized from the body's static cost (1, the paper's, for a body
// whose cost is unbounded or that has no plan) — and each ridden
// Barrier as "Barrier rides the <closer> at line M".
//
// -exec aot selects the ahead-of-time native tier (internal/aot): it
// translates the program to Go, builds it once into a content-addressed
// cache ($FORCE_CACHE or ~/.cache/force, keyed by the source text and the
// build environment: GOFLAGS, GOARCH, GOAMD64, GOEXPERIMENT, CGO_ENABLED)
// and executes the cached binary, handing it -np and whichever of
// -barrier -reduce -selfsched -askfor are not the defaults: one
// binary per program serves every configuration, and any edit of the
// file, a comment included, is a new binary whose line numbers are that
// file's.  It falls back to the chunked interpreter when the Go
// toolchain is unavailable, the build fails, or a non-native -machine
// profile is requested.  -v reports the tier decision, cache hit/miss
// and build time on standard error.
//
// After parsing, forcerun runs the forcevet static analyzer
// (internal/vet): collective consistency (FV001), provable faults
// (FV002/FV003), shared-memory races (FV101/FV102) and asyncvar
// protocol breaks (FV201/FV202), printed on standard error.  -vet=warn
// (the default) reports and runs anyway, -vet=err reports and refuses
// to run, -vet=off skips the analysis.  `forcec -explain FV001` prints
// the long-form rule behind a code.
//
// -cpuprofile and -memprofile write pprof profiles (CPU over the whole
// run, heap at exit — both also on runtime errors) so interpreter hot
// paths can be measured directly:
//
//	forcerun -np 8 -cpuprofile cpu.out file.force && go tool pprof cpu.out
//
// # Fault containment and the deadline
//
// A Force runtime error (division by zero, subscript out of range)
// aborts the whole force even when it strikes only some processes: the
// failing process poisons the force, blocked peers unwind, and forcerun
// prints "forcerun: force runtime: ..." and exits 1 — at every NP, not
// just NP=1.
//
// -timeout D is the one way to stop a run from outside, on both tiers.
// The run executes under a context (core.Force.RunContext, the aot
// child's process-group kill); at D forcerun notes where each process
// of the force is blocked, at which construct and source line, then
// cancels the context: every blocked process unwinds, and forcerun
// prints that report and "wall-clock deadline exceeded after D" and
// exits 1.  A run that finishes at the deadline prints no report.  A
// run that has still not returned 5s after D — stuck outside every
// cancellable wait, or before the force exists — is given up: the
// report, a give-up line, exit 3.
//
// FORCE_FAULTS=<spec> arms the fault-injection chaos harness
// (internal/faultinject) before the run: named runtime sites
// (barrier.enter, askfor.take, aot.exec, ...) panic, delay or stall
// according to the spec — e.g. "seed=7,barrier.enter=panic".  Used by
// the chaos sweep in CI; off (and costless) when unset.  Injections
// arm this process only: the aot tier's generated child binary runs
// uninstrumented (its aot.build/aot.exec parent-side sites still fire).
//
// Exit codes: 0 success; 1 any error (parse, check, runtime error,
// -timeout deadline, injected fault); 2 usage (or a malformed
// FORCE_FAULTS spec); 3 the -timeout give-up.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/aot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/vet"
)

func main() {
	// All work happens in run so its defers (profile finalization) fire
	// before the error exit.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "forcerun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		np      = flag.Int("np", 4, "number of force processes")
		machF   = flag.String("machine", "native", "machine profile")
		execF   = flag.String("exec", "chunked", "execution engine: chunked (closure compiler, DOALL planner on) or aot (cached native binary)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		wallTO  = flag.Duration("timeout", 0, "wall-clock deadline for the whole run: report where each process is blocked and cancel it after this long (0 disables)")
		vetF    = flag.String("vet", "warn", "forcevet static analysis: warn (report and run), err (report and fail), off")
		verbose = flag.Bool("v", false, "report tier decisions and cache activity on standard error")
	)
	// -barrier -reduce -selfsched -askfor: the flags a generated
	// binary declares too.
	variants := core.VariantFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: forcerun [-np N] [-machine NAME] [-barrier ALG] [-exec chunked|aot] file.force")
		os.Exit(2)
	}
	forcert.CheckNP("forcerun", *np)
	// Arm the chaos harness before anything runs; a malformed spec is a
	// usage error, same as a bad flag.
	if spec := os.Getenv("FORCE_FAULTS"); spec != "" {
		plan, err := faultinject.ParseSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "forcerun:", err)
			os.Exit(2)
		}
		faultinject.Enable(plan)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		return err
	}
	prog, err := forcelang.Parse(src)
	if err != nil {
		return err
	}
	if err := vet.Gate(prog, *vetF, "forcerun", os.Stderr); err != nil {
		return err
	}
	prof, err := machine.ByName(*machF)
	if err != nil {
		return err
	}
	v, err := variants()
	if err != nil {
		return err
	}
	// "aot" is the native tier handled below, which keeps the chunked
	// interpreter as its fallback engine.
	nativeTier := *execF == "aot"
	if !nativeTier && *execF != "chunked" {
		return fmt.Errorf("unknown -exec engine %q (want chunked or aot)", *execF)
	}
	// Profile finalization is once-wrapped and shared with the
	// -timeout give-up: its os.Exit(3) bypasses these defers, and
	// losing the profiles on exactly the runs being diagnosed would
	// defeat the point.
	var finOnce sync.Once
	cpuStarted := false
	finalizeProfiles := func() {
		finOnce.Do(func() {
			if cpuStarted {
				pprof.StopCPUProfile()
			}
			if *memProf != "" {
				writeMemProfile(*memProf)
			}
		})
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		cpuStarted = true
	}
	defer finalizeProfiles()
	ctx, onForce, end := context.Background(), func(*core.Force) {}, func(err error) error { return err }
	if *wallTO > 0 {
		ctx, onForce, end = withDeadline(*wallTO, finalizeProfiles)
	}
	if nativeTier {
		ran, err := tryNative(ctx, prog, v, *np, *machF, *verbose)
		if ran {
			return end(err)
		}
		// Fall through to the chunked interpreter.
	}
	cfg := interp.Config{
		NP:        *np,
		Machine:   prof,
		Barrier:   v.Barrier,
		Stdout:    os.Stdout,
		Selfsched: v.Selfsched,
		Askfor:    v.Askfor,
		Reduce:    v.Reduce,
		Context:   ctx,
		OnForce:   onForce,
	}
	if *verbose {
		// Narrate the interpreter run the same way tryNative narrates the
		// native tier: the engine, the span grain of the chunk discipline,
		// and every fusion decision the compiler takes.
		fmt.Fprintf(os.Stderr, "forcerun: tier chunked: np %d, chunk %d, fusion on\n", *np, sched.DefaultChunk)
		cfg.FuseLog = func(msg string) {
			fmt.Fprintf(os.Stderr, "forcerun: fuse: %s\n", msg)
		}
	}
	return end(interp.Run(prog, cfg))
}

// withDeadline arms -timeout D.  At D a timer takes the force's
// blocked-process report (Force.Blocked, through onForce; the aot tier
// has no force to ask) and only then cancels ctx: once one process
// unwinds, its peers move on and the report would describe the unwind.
// end stops the timers and, when the run ended by that cancel, prints
// the report and returns the deadline error; any other outcome passes
// through.  At D+5s a run that has not returned is given up: the
// report, a give-up line, exit 3.
func withDeadline(d time.Duration, finalizeProfiles func()) (ctx context.Context, onForce func(*core.Force), end func(error) error) {
	errDeadline := fmt.Errorf("wall-clock deadline exceeded after %v (-timeout)", d)
	ctx, cancel := context.WithCancelCause(context.Background())
	var (
		mu      sync.Mutex
		force   *core.Force
		blocked []string
	)
	report := func() {
		mu.Lock()
		defer mu.Unlock()
		for pid, site := range blocked {
			fmt.Fprintf(os.Stderr, "  process %d: %s\n", pid, site)
		}
	}
	deadline := time.AfterFunc(d, func() {
		mu.Lock()
		if force != nil {
			blocked = force.Blocked()
		}
		mu.Unlock()
		cancel(errDeadline)
	})
	giveUp := time.AfterFunc(d+5*time.Second, func() {
		report()
		fmt.Fprintf(os.Stderr, "forcerun: %v, and the run did not stop within 5s of it; giving up\n", errDeadline)
		finalizeProfiles()
		os.Exit(3)
	})
	onForce = func(f *core.Force) {
		mu.Lock()
		force = f
		mu.Unlock()
	}
	end = func(err error) error {
		deadline.Stop()
		giveUp.Stop()
		if errors.Is(err, context.Canceled) && context.Cause(ctx) == errDeadline {
			report()
			err = errDeadline
		}
		cancel(nil)
		return err
	}
	return ctx, onForce, end
}

// tryNative runs prog through the ahead-of-time native tier.  It
// returns ran=false when the run should fall back to the chunked
// interpreter: a non-native machine profile, an unopenable cache, a
// missing toolchain or failed build.  When ran is true the returned
// error is the program's outcome — nil or the exact "force runtime:
// line N: ..." the interpreter tiers would report.
func tryNative(ctx context.Context, prog *forcelang.Program, opts aot.Options, np int, machName string, verbose bool) (bool, error) {
	vlog := func(format string, args ...any) {
		if verbose {
			fmt.Fprintf(os.Stderr, "forcerun: "+format+"\n", args...)
		}
	}
	if machName != "native" {
		vlog("tier aot: -machine %s is interpreter-only; falling back to the chunked interpreter", machName)
		return false, nil
	}
	cache, err := aot.Open("")
	if err != nil {
		vlog("tier aot: %v; falling back to the chunked interpreter", err)
		return false, nil
	}
	start := time.Now()
	entry, err := cache.EnsureContext(ctx, prog, opts)
	if err != nil {
		if ctx.Err() != nil {
			// The -timeout deadline expired during the build: the run
			// is over, not fallback material — interpreting now would
			// overrun the very deadline the caller set.
			return true, err
		}
		// A missing toolchain is the one expected fallback; any other
		// build failure is reported even without -v.
		if verbose || !errors.Is(err, aot.ErrNoToolchain) {
			fmt.Fprintf(os.Stderr, "forcerun: tier aot: %v; falling back to the chunked interpreter\n", err)
		}
		return false, nil
	}
	if st := cache.Stats(); st.Builds > 0 {
		vlog("tier aot: cache %s (key %.12s); built in %v",
			map[bool]string{true: "stale entry rebuilt", false: "miss"}[st.Stale > 0],
			entry.Key, time.Since(start).Round(time.Millisecond))
	} else {
		vlog("tier aot: cache hit (key %.12s)", entry.Key)
	}
	// The decisions the binary was emitted from: the lines the chunked
	// tier narrates for the same program, from the same plan.
	if verbose {
		for _, line := range entry.Plan() {
			vlog("fuse: %s", line)
		}
	}
	return true, entry.RunContext(ctx, np, os.Stdout)
}

// writeMemProfile dumps the heap profile after a GC so the numbers
// reflect live interpreter allocations, not garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forcerun:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "forcerun:", err)
	}
}

func readSource(name string) (string, error) {
	if name == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}
