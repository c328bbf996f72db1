package vet

import (
	"sort"
	"strings"
)

// explanations holds the long-form rule text behind each diagnostic
// code, printed by `forcec -explain FVnnn`.
var explanations = map[string]string{
	"FV001": `FV001: collective construct reachable under a non-uniform condition (error)

Barrier, Presched/Selfsched DO, Pcase, Askfor and the global reduction
statements (GSUM, GPROD, GMAX, GMIN, GAND, GOR) are collective: every
process of the force must arrive at the construct together.  The Force
compiles to SPMD code, so a collective nested under an IF whose
condition can differ between processes — one that reads the process
identifier (ME), a consumed async value, or anything derived from them
— is reached by only a subset of the force.  The peers wait at the
collective for processes that will never arrive, and without the
runtime's poison protocol the whole force deadlocks.

forcevet tracks a uniform/varying level for every private scalar (the
same two-point lattice the chunk compiler uses): ME is varying, shared
and async reads are uniform, and assignments propagate levels through
expressions.  A collective statement — or a Call whose callee
transitively contains one — inside a branch or loop whose controlling
expression is varying is reported as FV001.

Fix: hoist the collective out of the varying branch, or make the
condition uniform (derive it from shared data every process reads
identically).  To run something in one process only, use a Barrier
section: every process arrives, exactly one executes the section.`,

	"FV002": `FV002: provable fault under a non-uniform condition (error)

The statement provably fails a run-time check — an INTEGER division or
MOD with a zero divisor, SQRT of a negative value, an out-of-range
subscript, a zero DO step; the diagnostic quotes the run-time message — but only in a strict subset of processes, because the
faulting path is guarded by (or indexed with) a varying value such as
ME.  The faulting process aborts; its peers head for the next
collective and block until the runtime's abort protocol (poisoned
barrier/reduction cells, PR 4) wakes them.  The program can never
complete normally, so this is an error even though the runtime contains
it.

forcevet proves faults with constant folding plus loop-range analysis:
a divisor that is zero for some value of an enclosing DO variable
within its constant bounds and stride is "reachable zero".  The
diagnostic names the witness (e.g. "when I = 7").

Fix: remove the fault (guard the divisor, fix the subscript) — the
non-uniform guard is not the bug, the fault is.`,

	"FV003": `FV003: provable fault on the uniform path (warning)

The statement provably fails a run-time check — an INTEGER division or
MOD with a zero divisor, SQRT of a negative value, an out-of-range
subscript, a zero DO step; the diagnostic quotes the run-time message — and the path to it is uniform, so every process faults
together.  The runtime reports it cleanly (same fault, every process),
which is why this is a warning rather than an error: the behavior is
deterministic, just wrong.

Note that only INTEGER division and MOD fault; REAL division and MOD
follow IEEE semantics (infinities and NaNs) and are never reported.

Fix: correct the constant or the loop bounds feeding the fault.`,

	"FV101": `FV101: unsynchronized shared write in a parallel body (warning)

A shared scalar or array is written inside a DOALL body, an Askfor task
body, or across Pcase blocks, where distinct processes execute
concurrently, and none of the proofs over the body's footprint applies
(forcevet reads the same footprint and the same proofs the span tiers
lower from, internal/plan):

  - every access to the name sits inside one Critical section with a
    single name (two different locks exclude nothing);
  - the scalar is a pure shared accumulate: every write is S = S + e,
    S = e + S or S = S - e over an INTEGER S, or S = MAX(S, e) /
    S = MIN(S, e) over an INTEGER or REAL S, all under one operator,
    with e never reading S, and S is read nowhere else in the body.
    The language makes such a statement one atomic update in every
    tier.  Mixed operators on one scalar, a REAL sum, MAX(e, S), or a
    MAX that promotes into an INTEGER S are plain stores;
  - the array subscripts use one affine form in the loop indices that
    is injective, so iterations touch disjoint elements.  An index
    temporary counts as its definition (K = I + 1; A(K - 1) = ...)
    only when K is a private INTEGER scalar whose single assignment in
    the body is an unconditional top-level statement — not under IF,
    DO, DO WHILE or Critical — and every use of K follows it;
  - the name is write-only in the body and every stored value is the
    same in every process and iteration (idempotent stores).

Anything else is a data race: the result depends on interleaving.
README, Semantics -> Visibility, says what a racy read may still
observe (per element some whole stored value, no order across
elements) and which statements make a store visible to another
process: Barrier, a construct's exit, Critical, Produce / Consume and
the global reductions.

By-reference subroutine parameters are not tracked (the caller owns
their synchronization), and a shared variable passed to a Call inside
the body is conservatively treated as read and written there.

Fix: wrap the accesses in a Critical section with one name, convert
the pattern to a global reduction (GSUM et al.), or restructure the
subscripts so each iteration owns its elements.`,

	"FV102": `FV102: replicated unsynchronized store at force level (warning)

At force level — outside any parallel construct — every process of the
force executes every statement.  A plain assignment to a shared scalar
(or to one fixed element of a shared array) is therefore executed by
all processes at once.  If the stored value can differ between
processes (it is varying), the final contents depend on which process
writes last: a race the paper's model makes easy to write by accident
(README, Semantics -> Visibility, says what each process may then read).
A read-modify-write of a shared scalar (e.g. N = N + 1 at force level)
is flagged even for uniform values, since the interleaved
read/increment/store sequences lose updates.

Uniform stores of identical values are permitted — they are the
dialect's idiomatic way to initialize shared data — as are stores
indexed by varying subscripts such as A(ME+1), which give each process
its own element.

Fix: initialize shared data in a Barrier section (one process runs
it), use a global reduction, or index the array by process.`,

	"FV201": `FV201: Consume or Copy of an async variable that is never Produced (error)

Async variables are HEP-style full/empty cells: Consume blocks until
the cell is full.  No statement anywhere in the program Produces this
variable, so the cell can never become full and the consuming process
blocks forever; only the runtime's hang detector or an external
deadline frees it.  Because the checker rejects Async subroutine
parameters, "never Produced" is decidable by a whole-program walk.

A Produce / Consume pair is one of the language's consistency points
(README, Semantics -> Visibility): what the producer stored before its
Produce is visible to the consumer.  A Consume with no Produce orders
nothing, it only waits.

Fix: add the Produce (typically in a barrier section or a designated
block), or remove the dead Consume.`,

	"FV202": `FV202: second Produce without an intervening Consume or Void (warning)

Produce blocks while the cell is full.  Two Produces of the same cell
(same variable, same canonical subscript form) on one straight-line
statement path with no Consume or Void between them means the second
Produce blocks on its own full cell — unless some other process
Consumes in the window, which cannot happen on a private path and is a
fragile protocol even on a shared one.

The analysis is deliberately local: it only examines straight-line
runs and forgets its state at any compound statement (loop, branch,
barrier, ...), so cross-iteration pairs where another process may
legitimately interleave are not reported.

A Produce is a consistency point for the process whose Consume or Copy
returns its value (README, Semantics -> Visibility); a Produce blocked
on its own full cell publishes the stores before it to nobody.

Fix: Consume or Void the cell before refilling it, or Produce a
different element.`,
}

// Explain returns the long-form explanation for a diagnostic code, or
// "" if the code is unknown.  Codes are matched case-insensitively.
func Explain(code string) string {
	return explanations[strings.ToUpper(strings.TrimSpace(code))]
}

// Codes lists every diagnostic code with an explanation, sorted.
func Codes() []string {
	out := make([]string, 0, len(explanations))
	for c := range explanations {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
