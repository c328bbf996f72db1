// Sixmachines is the portability claim as a demo: one Force program runs
// unchanged across emulated profiles of all six machines the paper lists
// (HEP, Flex/32, Encore Multimax, Sequent Balance, Alliant FX/8, Cray-2),
// each differing only in its machine-dependent layer — lock mechanism,
// async-variable realization, process-creation model and cost, and
// shared-memory designation policy.
//
//	go run ./examples/sixmachines [-np 6]
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
)

func main() {
	np := flag.Int("np", 6, "number of force processes")
	flag.Parse()

	// result is the program's computed value — identical everywhere by
	// construction; conformance is the machine layer's own check.
	fmt.Printf("one program, seven machine layers (np=%d)\n", *np)
	for _, m := range machine.All() {
		conf := "OK"
		if err := core.Conformance(m, *np); err != nil {
			conf = "FAIL: " + err.Error()
		}
		fmt.Printf("%-9s locks %-8s async %-8s creation %-16s sharing %-19s result %d  conformance %s\n",
			m.Name, m.Lock, m.Async, m.Creation, m.ShmPolicy, runProgram(m, *np), conf)
	}
}

// runProgram is the portable Force program: a selfscheduled loop feeding
// a global reduction, a produce/consume handoff, and a Pcase, returning a
// deterministic value.  The reduction runs on the machine's own
// primitives too: the Critical strategy folds under the machine's lock
// mechanism, exactly as the hand-rolled 1989 idiom did.
func runProgram(m machine.Profile, np int) int {
	f := core.New(np, core.WithMachine(m), core.WithVariants(core.Variants{Reduce: reduce.Critical}))
	defer f.Close()
	cell := core.NewAsync[int](f)
	adjust := 0
	f.Run(func(p *core.Proc) {
		mine := 0
		p.SelfschedDo(sched.Range{Start: 1, Last: 200, Incr: 1}, func(i int) {
			mine += i
		})
		total := core.Gsum(p, mine)
		p.BarrierSection(func() { cell.Produce(total) })
		p.Pcase(
			core.Case(func() { p.Critical("adj", func() { adjust += 1 }) }),
			core.CaseIf(func() bool { return p.NP() > 0 },
				func() { p.Critical("adj", func() { adjust += 2 }) }),
		)
	})
	return cell.Consume() + adjust
}
