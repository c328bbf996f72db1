package plan

// The static cost of a span-certified body and the grant derived from it.
//
// A selfscheduled loop pays one cross-process handoff per claim — the
// loop lock's cache line, or the cursor's, migrates to the claiming
// process — so a claim should buy enough work to be worth one.  The cost
// of a body is counted in units, one per operation: a variable or element
// reference (its subscripts counted too), an operator, an intrinsic call,
// a store; an IF costs its condition and its dearer branch, a sequential
// DO whose bounds are literals its trip count times its body.  A
// sequential DO with any other bound makes the body UNBOUNDED — its cost
// varies with the iteration, the case selfscheduling exists to balance —
// and an unbounded body, like one with no plan at all, keeps the paper's
// one iteration per claim.

import (
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/uniform"
)

// GrantNs is the work one claim of a planned selfscheduled loop should
// buy, in nanoseconds: a few handoffs' worth (one costs 0.1-0.3 µs on the
// reference box), after which the measured gain is flat — it saturates
// between 16 and 64 ordinals for ten-unit bodies on the closure tier.
const GrantNs = 4000

// costCeil saturates the count.
const costCeil = 1 << 30

// grant is how many ordinals one claim takes for an iteration of the given
// cost (0: unbounded) on a back end executing a unit in nsPerUnit
// nanoseconds.
func grant(cost, nsPerUnit int) int {
	if cost == 0 {
		return 1
	}
	per := cost * nsPerUnit
	return max(1, (GrantNs+per-1)/per)
}

// iterationCost is the cost of one iteration of a span-certified DOALL
// body: its statements plus one unit for the loop itself, or 0 when the
// body is unbounded.
func iterationCost(body []forcelang.Stmt) int {
	units, bounded := listCost(body)
	if !bounded {
		return 0
	}
	return units + 1
}

// listCost counts the units of one execution of a span-certified
// statement list (Assign, IF and sequential DO only); bounded is false
// when no static count bounds it.
func listCost(list []forcelang.Stmt) (units int, bounded bool) {
	for _, st := range list {
		c := 1
		switch t := st.(type) {
		case *forcelang.Assign:
			c += exprCost(t.Expr)
			for _, sub := range t.Target.Subs {
				c += exprCost(sub)
			}
		case *forcelang.If:
			then, ok1 := listCost(t.Then)
			els, ok2 := listCost(t.Else)
			if !ok1 || !ok2 {
				return 0, false
			}
			c += exprCost(t.Cond) + max(then, els)
		case *forcelang.SeqDo:
			trips, ok1 := literalTrips(t.From, t.To, t.Step)
			body, ok2 := listCost(t.Body)
			if !ok1 || !ok2 {
				return 0, false
			}
			c += min(trips*(body+1), costCeil)
		default:
			return 0, false
		}
		units = min(units+c, costCeil)
	}
	return units, true
}

// literalTrips is the trip count of a DO whose bounds and step (nil: 1) are
// literal expressions: forcert.Do's, the count every back end runs it by,
// saturated at costCeil.
func literalTrips(fromX, toX, stepX forcelang.Expr) (int, bool) {
	from, ok1 := uniform.ConstInt(fromX)
	to, ok2 := uniform.ConstInt(toX)
	step, ok3 := int64(1), true
	if stepX != nil {
		step, ok3 = uniform.ConstInt(stepX)
	}
	if !ok1 || !ok2 || !ok3 || step == 0 {
		return 0, false
	}
	_, _, n := forcert.Do(from, to, step)
	return int(min(n, costCeil)), true
}

// exprCost counts the references, operators and intrinsic calls of e.
func exprCost(e forcelang.Expr) int {
	switch t := e.(type) {
	case *forcelang.Ref:
		c := 1
		for _, sub := range t.Subs {
			c += exprCost(sub)
		}
		return c
	case *forcelang.Un:
		return 1 + exprCost(t.X)
	case *forcelang.Bin:
		return 1 + exprCost(t.L) + exprCost(t.R)
	case *forcelang.Intrinsic:
		c := 1
		for _, a := range t.Args {
			c += exprCost(a)
		}
		return c
	}
	return 0 // literals
}
