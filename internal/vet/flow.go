package vet

// The flow findings: which collectives only some processes reach, which
// statements provably fault and which force-level stores every process
// repeats is proven by internal/plan's flow analysis (plan/flow.go), one
// walk per program that the planner reads too.  This file only names
// them, FV001, FV002 / FV003 and FV102.  The flow reads a value from shared
// or asynchronous storage as Assumed — uniform in a synchronized program,
// the convention the convergence idiom (DO WHILE over a barrier-maintained
// flag) depends on — and forcevet takes it at its word: only Varying
// varies here.  The race and protocol passes own the cases where that
// convention is violated.

import "repro/internal/plan"

// names are the diagnostics of the flow's findings, by kind.
var names = [...]struct {
	code, format string
	sev          Severity
}{
	plan.SkippedCollective: {"FV001", "collective %s reachable under non-uniform condition", Error},
	plan.SkippedCall:       {"FV001", "collective construct in %s reachable under non-uniform condition (call site)", Error},
	plan.SomeFault:         {"FV002", "provable fault under non-uniform condition: %s", Error},
	plan.EveryFault:        {"FV003", "provable fault: %s", Warning},
	plan.ReplicatedUpdate:  {"FV102", "shared %s updated by every process at force level without synchronization (read-modify-write)", Warning},
	plan.ReplicatedValues:  {"FV102", "shared %s stored by every process at force level with differing values", Warning},
	plan.ReplicatedElement: {"FV102", "every process stores a differing value into the same element of shared %s at force level", Warning},
}

// name reports one flow finding as its diagnostic.
func (a *analysis) name(fd plan.Finding) {
	n := names[fd.Kind]
	a.report(n.code, n.sev, fd.Line, n.format, fd.What)
}
