package plan

import "repro/internal/forcelang"

// FlowWalks counts the flow analyses made (Analyze), for the tests of
// package plan_test.
var FlowWalks = &flowWalks

// CountVisits counts in visits every statement the flow analysis visits,
// until the returned func is called.
func CountVisits(visits map[forcelang.Stmt]int) (stop func()) {
	stmtVisited = func(st forcelang.Stmt) { visits[st]++ }
	return func() { stmtVisited = func(forcelang.Stmt) {} }
}
