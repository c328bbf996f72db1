// Package repro is a from-scratch Go reproduction of "The Force: A Highly
// Portable Parallel Programming Language" (Jordan, Benten, Alaghband,
// Jakob; University of Colorado CSDG 89-2 / ICPP 1989).
//
// The repository contains both halves of the paper, layered as
//
//		forcelang            front end: lexer, parser, AST, checker for the
//		   │                 Force dialect (incl. language-level Askfor/Put
//		   │                 and the GSUM/GMAX global-reduction statements);
//		   │                 the checker is the one binder and typer: it
//		   │                 keeps each unit's scope, points every node
//		   │                 that names a variable at its symbol (storage,
//		   │                 role, owning unit, slot, parameter index) and
//		   │                 records every expression's type — everything
//		   │                 below reads those fields
//		   ├── vet           forcevet static analysis over the checked AST:
//		   │                 collective consistency (a Barrier/DOALL/GSUM
//		   │                 reachable under a non-uniform condition),
//		   │                 provable faults, shared-memory races, asyncvar
//		   │                 protocol breaks — structured FVnnn diagnostics
//		   │                 wired into forcec/forcerun (-vet=warn|err|off,
//		   │                 forcec -explain FVnnn) and cmd/forcevet; the
//		   │                 uniform/varying lattice and the affine
//		   │                 disjointness proofs live in internal/uniform,
//		   │                 shared with the DOALL plan below
//		   ├── plan          the lowered construct list: Target.Next turns a
//		   │                 statement list, step by step, into the
//		   │                 statement itself, a Loop or a Region, every
//		   │                 decision a field — the classify walk (uniform
//		   │                 vs varying, disjointness, accumulator folding,
//		   │                 whether the iteration→process map is
//		   │                 observable → block or cyclic deal), the grant,
//		   │                 the shared-accumulate recogniser, the fusion
//		   │                 legality proofs (runs of adjacent independent
//		   │                 DOALLs, plus a trailing GSUM/GPROD/GMAX/GMIN,
//		   │                 that may share one closing join), the Barrier
//		   │                 riding a collective, who stores a fold.  BOTH
//		   │                 back ends below walk that one list and only
//		   │                 spell it (closures, text); forcerun -v narrates
//		   │                 the same decision lines on either
//		   ├── interp        SPMD interpreter: a layout pass sizes frames and
//		   │                 shared storage from the symbols' slots and ONE
//		   │                 closure compiler emits typed closures over
//		   │                 index-addressed frames — every shared scalar
//		   │                 and shared array element is one atomic word
//		   │                 typed by its declaration, read and written
//		   │                 unboxed, no locks in the store; a racy program
//		   │                 observes, per element, some whole value stored
//		   │                 there.  Every DOALL runs as a loop over the
//		   │                 spans core grants the process; a body the
//		   │                 plan certifies is compiled in the compiler's
//		   │                 chunk mode — loop index in the process's
//		   │                 chunk context, uniform subexpressions
//		   │                 hoisted, accumulators folded — a fused region
//		   │                 as open members and one join; the same
//		   │                 compiler at a lower planner level (off: -exec
//		   │                 compiled; no fusion: -fuse=off) and the
//		   │                 original tree walker (the test oracle) are
//		   │                 the differential references (forcerun -exec
//		   │                 chunked|compiled|tree)
//		   └── codegen       compiler back end emitting Go against core:
//		        │            every DOALL a Go for-loop over the scheduler
//		        │            span (block deal, span-local accumulator
//		        │            partials and fused regions as the plan says);
//		        │            the emitted program has no prelude — it
//		        │            imports forcert (below)
//		        │
//		        ├── aot      cached native tier: a hash of the source text
//		        │            keys a content-addressed cache of go-built
//		        │            binaries, one per program — -np and the five
//		        │            runtime flags are the binary's own arguments —
//		        │            build once, exec forever (forcerun -exec aot;
//		        │            forcemark's native-warm workload)
//		        ▼
//		      core           the runtime: Force/Proc with every construct —
//		        │            DOALLs, Pcase, Askfor, Resolve, barriers,
//		        │            criticals, produce/consume, and the one
//		        │            closing collective every global reduction of
//		        │            every tier contributes through (a fused
//		        │            region's join; a GSUM on its own; core.Gsum)
//		   ┌────┼───────┬──────────┐
//		   ▼    ▼       ▼          ▼
//		 engine sched reduce  barrier / lock / asyncvar / shm / machine
//		              (operators and the one reusable rendezvous)
//
//	  - internal/forcert is the run-time support every tier shares and
//	    every generated program imports: the checks a running program
//	    performs (integer divide, MOD, SQRT, array and async subscripts,
//	    loop steps — each small enough to inline across the package
//	    boundary, panicking a value whose message is formatted only when
//	    reported), the one error value and its message text, the Fortran
//	    intrinsics, the atomic add / max / min of a 64-bit cell behind the
//	    shared accumulate, and the Print line and REAL formatter.  The
//	    tree walker keeps its own evaluator (it is the oracle) but raises
//	    the same errors and prints through the same formatter, and
//	    forcevet quotes the same messages;
//
//	  - internal/reduce holds what a global reduction is made of: the
//	    strategy names, the operators (sum, product, max, min, and, or,
//	    custom), the fold of two bit-encoded contributions, and
//	    reduce.Join, the one reusable rendezvous (arrive, the last
//	    arrival alone, spin-then-park poison-aware release, self-reset).
//	    The collective itself is core's (core/fused.go), and so is the
//	    strategy — padded per-process slots folded in pid order at the
//	    Join, the default, or the paper's critical-section-plus-barrier
//	    idiom over the force's own lock and barrier — selected per force
//	    with core.WithReduce, honoured by every reduction on every tier,
//	    and surfaced as the language's GSUM/GPROD/GMAX/GMIN/GAND/GOR
//	    statements and the -reduce CLI flags;
//
//	  - internal/engine is the work-distribution substrate: a persistent
//	    force of NP worker goroutines (created once, reused by every Run —
//	    the paper's create-force-then-reuse driver), Chase-Lev work-stealing
//	    deques, and the two Askfor pools (engine.Pool: stealing deques or
//	    the [LO83] central monitor); selfscheduled Pcase and DOALL loops
//	    draw from internal/sched disciplines;
//
//	  - internal/sched provides the loop-scheduling disciplines: the
//	    prescheduled block and cyclic deals as pure functions of (pid, np,
//	    n), and the run-time ones (the paper's lock-based selfscheduling,
//	    fetch-and-add, chunked) as one reusable Loop whose claims advance
//	    by a grant (1: the paper's one index per acquisition);
//	    core.openSpans is the one place a discipline becomes spans;
//
//	  - internal/barrier, internal/lock, internal/asyncvar, internal/shm and
//	    internal/machine model the machine-dependent layer of the paper:
//	    the two barrier algorithms (the paper's two-lock relay, the
//	    sense-reversing counter), the three lock categories, the two
//	    full/empty asynchronous-variable realizations (the paper's two
//	    locks; one atomic state word on the value's cache line for the
//	    HEP's hardware bit), shared-memory
//	    designation, and the emulated profiles of the six 1989 machines
//	    the Force was ported to.  Each axis keeps the realization the
//	    paper describes and the one the defaults run, nothing else
//	    (README, "Which variants exist"; TestVariantInventory);
//
//	  - the portability architecture (internal/sedlite, internal/m4lite,
//	    internal/maclib) reproduces the two-pass macro preprocessor with its
//	    machine-independent statement-macro layer over machine-dependent
//	    low-level layers;
//
//	  - internal/poison is the fault-containment layer: a per-force
//	    cancellation cell (atomic poison flag + first-failure slot) that
//	    every blocking primitive observes — both barrier kinds, reduction
//	    episodes, asynchronous variables, Askfor pools and loop drivers.
//	    A runtime error in any process poisons the force, blocked peers
//	    unwind with a distinguished abort panic recovered at the engine's
//	    job boundary, core.Force.Run re-panics the first failure after
//	    all processes stop, and the persistent force rebuilds its per-run
//	    construct state so the next Run starts clean.  On the paper's
//	    1989 machines the same failure wedged the whole force forever.
//	    forcerun surfaces the protocol as a prompt "force runtime" error
//	    exit at any NP, plus a -hang-timeout stall watchdog that reports
//	    which processes are blocked at which construct and line.  The
//	    cell also carries an external cause: core.Force.RunContext
//	    poisons through it when a context is canceled or its deadline
//	    passes, so the same wake-and-unwind path serves forcerun
//	    -timeout, Force.Shutdown, and the aot tier's kill of the child's
//	    process group (core.TestCancellationLatency bounds the cancel
//	    latency).  It
//	    also owns the one wait policy every spinning primitive waits
//	    through, four phases: only while np <= GOMAXPROCS (which the cell
//	    learns at core.New) ~3 µs of polls separated by a CPU relax, so a
//	    release nanoseconds away never costs a visit to the scheduler;
//	    a short yield-spiced spin; again only while np <= GOMAXPROCS a
//	    time-bounded spin of about one park/wake round trip; then a sleep
//	    ladder — so a waiter with a CPU of its own does not oversleep a
//	    release microseconds away and an oversubscribed one still parks
//	    (BenchmarkAsyncHandoff, BenchmarkBarrierLateArrival);
//
//	  - internal/faultinject is the chaos layer over the same choke
//	    points: 17 named injection sites (barrier.enter ... fuse.join)
//	    threaded through the runtime's blocking primitives, each one
//	    atomic load when disarmed.  A seeded plan — FORCE_FAULTS env or
//	    the programmatic API — arms panic/delay/stall injectors at a
//	    site; the chaos sweep (TestChaos*) asserts every corpus program
//	    x tier x np x injection ends in the correct output or a clean
//	    abort carrying the injected failure, never a deadlock.
//
// See README.md for the quickstart, the system inventory ("Layout") and
// the measured results ("Benchmarks" and the tables beside each layer).
// forcemark (benchmark/, BENCHMARK.json) is the performance gate;
// cmd/forcebench prints the paper-shape tables F1, T1–T10, A1, A2 over
// the surviving variants.
package repro
