// Package vet is forcevet: a whole-program static analyzer over the
// checked forcelang AST.  It emits structured diagnostics for the three
// failure families the runtime's fault-containment layer (PR 4) catches
// dynamically, so a broken program can be rejected at submit time
// instead of occupying a force:
//
//	FV001  collective consistency: a Barrier, DOALL, Pcase, Askfor or
//	       global reduction reachable under a non-uniform condition
//	       (one that depends on ME, a consumed value, or another
//	       varying input), including through Call — only some
//	       processes would arrive, deadlocking the force without the
//	       poison protocol.
//	FV002  provable fault under a non-uniform condition: a statement
//	       that provably faults (division by zero, bad subscript, ...)
//	       in a strict subset of processes; the peers head for a
//	       collective and block until the abort protocol wakes them.
//	FV003  provable fault on the uniform path: every process faults.
//	FV101  shared-memory race: a shared scalar or array written inside
//	       a DOALL/Pcase/Askfor body outside Critical and not provably
//	       safe (affine-injective disjoint subscripts, pure shared
//	       accumulate, or idempotent uniform stores).
//	FV102  replicated unsynchronized store: every process writes a
//	       shared scalar (or one element) with differing values at
//	       force level, outside any construct.
//	FV201  asyncvar protocol: Consume/Copy of a variable no statement
//	       ever Produces — the consumer blocks forever.
//	FV202  asyncvar protocol: a second Produce of the same variable on
//	       a straight-line path with no intervening Consume or Void —
//	       the producer blocks on its own full cell.
//
// FV001–FV003 and FV102 are the findings of internal/plan's flow analysis
// (plan.Analyze: which values are the same in every process, which
// INTEGERs are constant), made once per program and read by the planner
// too; what a statement list reads and writes, with the proofs over it, is
// internal/plan's footprint (Summarize).  One analysis and one set of
// proofs serve both the optimizer and the analyzer.
//
// Analyze requires a program that already passed forcelang.Check (Parse
// runs it); the checker's own guarantees (no collectives inside
// single-stream contexts, declaration and type consistency) are assumed
// and not re-reported.
package vet

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/forcelang"
	"repro/internal/plan"
)

// Severity is the weight of a diagnostic.
type Severity int

const (
	// Warning marks a diagnostic that does not fail the build by
	// default (-vet=err promotes it).
	Warning Severity = iota
	// Error marks a definite protocol violation: the program cannot
	// run to completion on the flagged path.
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Code    string // "FV001" ...
	Sev     Severity
	Line    int
	Message string
}

// String renders the diagnostic in the canonical single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("line %d: %s %s: %s", d.Line, d.Code, d.Sev, d.Message)
}

// analysis carries the shared per-program state of all passes.
type analysis struct {
	flow  *plan.Flow
	diags []Diagnostic
}

// Analyze runs every pass over a checked program and returns the
// deduplicated diagnostics sorted by line, then code.
func Analyze(prog *forcelang.Program) ([]Diagnostic, error) {
	if prog.Scope == nil {
		return nil, fmt.Errorf("vet: program %s was not checked (forcelang.Check)", prog.Name)
	}
	// Flow findings: collective consistency (FV001), provable faults
	// (FV002/FV003), replicated stores (FV102) — proven by the program's
	// one flow analysis (internal/plan), named here.
	a := &analysis{flow: plan.Analyze(prog)}
	for _, fd := range a.flow.Findings {
		a.name(fd)
	}
	units := [][]forcelang.Stmt{prog.Body}
	for _, sub := range prog.Subs {
		units = append(units, sub.Body)
	}

	// Race pass: FV101 over every parallel construct body.
	for _, body := range units {
		a.racePass(body)
	}

	// Asyncvar protocol pass: FV201/FV202.
	a.asyncPass(units)

	return finish(a.diags), nil
}

// Gate is a command's -vet flag: it analyzes prog and writes each
// diagnostic to w as "tool: forcevet: ...".  Mode "warn" reports and
// continues, "err" reports and fails when anything was reported, "off"
// skips the analysis; any other mode is a usage error of tool (one line
// on w, exit status 2).
func Gate(prog *forcelang.Program, mode, tool string, w io.Writer) error {
	switch mode {
	case "off":
		return nil
	case "warn", "err":
	default:
		fmt.Fprintf(w, "%s: invalid -vet mode %q (want warn, err or off)\n", tool, mode)
		os.Exit(2)
	}
	diags, err := Analyze(prog)
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: forcevet: %s\n", tool, d)
	}
	if mode == "err" && len(diags) > 0 {
		return fmt.Errorf("forcevet: %d issue(s) reported with -vet=err", len(diags))
	}
	return nil
}

// report appends a diagnostic.
func (a *analysis) report(code string, sev Severity, line int, format string, args ...interface{}) {
	a.diags = append(a.diags, Diagnostic{Code: code, Sev: sev, Line: line, Message: fmt.Sprintf(format, args...)})
}

// finish deduplicates (identical code+line+message pairs arise from
// fixpoint re-walks and repeated call sites), drops FV003 at any line
// that also carries FV002 (the non-uniform verdict subsumes the uniform
// one for the same fault), and sorts by line then code.
func finish(diags []Diagnostic) []Diagnostic {
	fv002 := map[int]bool{}
	for _, d := range diags {
		if d.Code == "FV002" {
			fv002[d.Line] = true
		}
	}
	seen := map[string]bool{}
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if d.Code == "FV003" && fv002[d.Line] {
			continue
		}
		key := fmt.Sprintf("%s|%d|%s", d.Code, d.Line, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Code < out[j].Code
	})
	return out
}
