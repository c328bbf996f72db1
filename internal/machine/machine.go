// Package machine models the machine-dependent layer of the Force
// implementation (paper §4.1): the small set of primitives — locks, shared
// memory designation, asynchronous-variable support, process creation and
// termination — that differed across the six multiprocessors the Force was
// ported to, and that the entire machine-independent layer is built on.
//
// A Profile bundles one machine's choices.  Porting the Force meant
// rewriting only these; correspondingly, every higher-level package in this
// repository takes its lock factory, async-variable implementation, memory
// policy and creation model from a Profile, and the conformance suite runs
// the same programs across all profiles (experiment T1).
//
// The historical profiles are reconstructions from the paper's text; where
// the paper is silent (e.g. the Flex/32 creation model) the choice is
// documented on the profile.  Creation costs are scaled
// stand-ins preserving the paper's ordering — "the standard UNIX fork/join
// process control model ... has a large process creation and context
// switching cost", while on the HEP "one can create processes with a
// subroutine call" — not measured 1989 values.
package machine

import (
	"fmt"
	"time"

	"repro/internal/asyncvar"
	"repro/internal/lock"
	"repro/internal/shm"
)

// CreationModel is how a machine created the force of processes (§4.1.1).
type CreationModel int

const (
	// ForkCopy is the standard UNIX fork/join model: "a complete copy of
	// the data and stack is produced for each forked process" (Encore,
	// Sequent).  Creation is expensive, which "prevents fine grained
	// parallelism, unless the parallelism is not enclosed inside the
	// program structure".
	ForkCopy CreationModel = iota
	// ForkSharedData is the Alliant variation: "all data segments are
	// shared and only the stack is considered private".
	ForkSharedData
	// CreateCall is the HEP model: "one can create processes with a
	// subroutine call", executed by a new process in parallel with the
	// caller; a return terminates it independently.
	CreateCall
)

// String returns the model's short name.
func (m CreationModel) String() string {
	switch m {
	case ForkCopy:
		return "fork-copy"
	case ForkSharedData:
		return "fork-shared-data"
	case CreateCall:
		return "create-call"
	default:
		return fmt.Sprintf("machine.CreationModel(%d)", int(m))
	}
}

// Profile is one machine's machine-dependent macro set.
type Profile struct {
	// Name is the canonical lower-case machine name.
	Name string
	// Description summarizes the historical machine.
	Description string
	// Lock is the machine's generic lock mechanism (§4.1.3).
	Lock lock.Kind
	// Async selects the asynchronous-variable realization: hardware
	// full/empty on the HEP, the two-lock scheme elsewhere (§4.2).
	Async asyncvar.Impl
	// Creation is the process-creation model (§4.1.1).
	Creation CreationModel
	// CreationCost is the simulated per-process creation overhead; the
	// Force driver pays it once per process at startup.
	CreationCost time.Duration
	// ShmPolicy is the shared-memory designation mechanism (§4.1.2).
	ShmPolicy shm.Policy
	// PageSize is the sharing granularity for the page-based policies.
	PageSize int
	// ScarceLocks records the paper's caveat that "in some machines,
	// locks may be scarce resources"; profiles with the flag set keep
	// lock-hungry programs honest in the conformance report.
	ScarceLocks bool
	// Hardware full/empty support is implied by Async == asyncvar.Word.
}

// LockFactory returns the define_lock constructor for this machine.
func (p Profile) LockFactory() func() lock.Lock { return lock.Factory(p.Lock) }

// NewLock creates one lock using the machine's mechanism.
func (p Profile) NewLock() lock.Lock { return lock.New(p.Lock) }

// NewArena creates a shared-memory arena under the machine's policy; base
// is the simulated load address.
func (p Profile) NewArena(base int) *shm.Arena {
	return shm.NewArena(p.ShmPolicy, p.PageSize, base)
}

// NewAsync creates an asynchronous variable using the machine's
// realization.  (A free function because Go methods cannot introduce type
// parameters.)
func NewAsync[T any](p Profile) asyncvar.V[T] {
	return asyncvar.New[T](p.Async, p.LockFactory())
}

// PayCreationCost busy-waits for the profile's per-process creation
// overhead.  A busy wait, not a sleep, so that sub-millisecond costs
// remain meaningful under coarse timer granularity and benchmark shapes
// stay deterministic.
func (p Profile) PayCreationCost() {
	if p.CreationCost <= 0 {
		return
	}
	deadline := time.Now().Add(p.CreationCost)
	for time.Now().Before(deadline) {
	}
}

// The historical profiles.  Creation costs keep the paper's ordering
// (fork-copy ≫ fork-shared-data ≫ create-call) at magnitudes small enough
// for fast tests.  The six machines are kept by rule (a) of README's
// "Which variants exist" (the paper ports to them), Native by rule (b):
// it is the default.
var (
	// HEP: Denelcor HEP — hardware full/empty bit on every memory cell,
	// process creation by subroutine call, compile-time sharing through
	// COMMON.
	HEP = Profile{
		Name:         "hep",
		Description:  "Denelcor HEP: hardware full/empty memory, create-call processes, compile-time sharing",
		Lock:         lock.TTAS, // generic locks synthesized over F/E cells; spin-class behaviour
		Async:        asyncvar.Word,
		Creation:     CreateCall,
		CreationCost: 2 * time.Microsecond,
		ShmPolicy:    shm.CompileTime,
		PageSize:     1024,
	}
	// Flex32: Flexible Computer Flex/32 — combined spin-then-system-call
	// locks, compile-time sharing.  The paper does not state its creation
	// model; we use fork-copy (it ran a UNIX derivative).
	Flex32 = Profile{
		Name:         "flex32",
		Description:  "Flex/32: combined locks, compile-time sharing, fork-style creation (model choice documented)",
		Lock:         lock.Combined,
		Async:        asyncvar.TwoLock,
		Creation:     ForkCopy,
		CreationCost: 150 * time.Microsecond,
		ShmPolicy:    shm.CompileTime,
		PageSize:     4096,
	}
	// Encore: Encore Multimax — test&set spin locks, UNIX fork/join,
	// run-time shared pages padded at both ends.
	Encore = Profile{
		Name:         "encore",
		Description:  "Encore Multimax: test&set spin locks, fork/join creation, run-time padded shared pages",
		Lock:         lock.TAS,
		Async:        asyncvar.TwoLock,
		Creation:     ForkCopy,
		CreationCost: 200 * time.Microsecond,
		ShmPolicy:    shm.RunTimePadded,
		PageSize:     4096,
	}
	// Sequent: Sequent Balance — test&set spin locks, UNIX fork/join,
	// link-time sharing via the two-run startup protocol.
	Sequent = Profile{
		Name:         "sequent",
		Description:  "Sequent Balance: test&set spin locks, fork/join creation, link-time sharing (two-pass)",
		Lock:         lock.TAS,
		Async:        asyncvar.TwoLock,
		Creation:     ForkCopy,
		CreationCost: 200 * time.Microsecond,
		ShmPolicy:    shm.LinkTime,
		PageSize:     4096,
	}
	// Alliant: Alliant FX/8 — fork with shared data segments and private
	// stacks; sharing must start at a page boundary.
	Alliant = Profile{
		Name:         "alliant",
		Description:  "Alliant FX/8: shared-data fork, page-start run-time sharing",
		Lock:         lock.TTAS,
		Async:        asyncvar.TwoLock,
		Creation:     ForkSharedData,
		CreationCost: 60 * time.Microsecond,
		ShmPolicy:    shm.RunTimePageStart,
		PageSize:     4096,
	}
	// Cray2: Cray-2 — operating-system locks ("the operating system
	// handles a list of locked processes in cooperation with the
	// scheduler"), scarce lock resources.
	Cray2 = Profile{
		Name:         "cray2",
		Description:  "Cray-2: system-call locks (scarce), compile-time sharing, fork-style creation",
		Lock:         lock.System,
		Async:        asyncvar.TwoLock,
		Creation:     ForkCopy,
		CreationCost: 120 * time.Microsecond,
		ShmPolicy:    shm.CompileTime,
		PageSize:     4096,
		ScarceLocks:  true,
	}
	// Native is the modern no-simulation profile used by default: Go
	// primitives, zero creation cost.
	Native = Profile{
		Name:         "native",
		Description:  "native Go: sync.Mutex locks, full/empty-word async vars, free creation",
		Lock:         lock.System,
		Async:        asyncvar.Word,
		Creation:     CreateCall,
		CreationCost: 0,
		ShmPolicy:    shm.RunTimePadded,
		PageSize:     4096,
	}
)

// All returns every profile, Native last, in the order the paper lists the
// machines.
func All() []Profile {
	return []Profile{HEP, Flex32, Encore, Sequent, Alliant, Cray2, Native}
}

// Historical returns the six 1989 machines, without Native.
func Historical() []Profile {
	return []Profile{HEP, Flex32, Encore, Sequent, Alliant, Cray2}
}

// ByName looks a profile up by its canonical name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("machine: unknown machine %q", name)
}
