// Quickstart: the Force model in one page.
//
// A force of NP processes executes the whole program SPMD.  Work is
// distributed by constructs (here a selfscheduled DOALL), coordination is
// generic — barriers with single-process barrier sections, named critical
// sections, and global reductions — and no process identifiers appear in
// any synchronization operation.
//
//	go run ./examples/quickstart [-np 8] [-reduce critical|slots]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/reduce"
	"repro/internal/sched"
)

func main() {
	np := flag.Int("np", 8, "number of force processes")
	strat := flag.String("reduce", "slots", "global-reduction strategy")
	flag.Parse()
	rk, err := reduce.ParseKind(*strat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	f := core.New(*np, core.WithVariants(core.Variants{Reduce: rk}))
	defer f.Close()

	// Shared variables are whatever the program shares; private
	// variables are locals of the process body (paper §3.2).
	histogram := make([]int, *np)

	f.Run(func(p *core.Proc) {
		// Every process executes this body, exactly like a Force main
		// program between "Force ... ident ME" and "Join".

		// Selfscheduled DOALL: iterations go to whoever asks next; the
		// loop ends with an implicit barrier.  Each process folds its
		// own partial sum — no synchronization inside the loop.
		mine := 0
		p.SelfschedDo(sched.Range{Start: 1, Last: 100, Incr: 1}, func(i int) {
			mine += i
			histogram[p.ID()]++
		})

		// Global reduction: one collective combines the partial sums
		// and hands every process the total.  This replaces the
		// hand-rolled critical-section accumulator of the 1989 idiom
		// (still available with -reduce critical).
		sum := core.Gsum(p, mine)

		// Barrier section: one arbitrary process reports while the
		// force is suspended.
		p.BarrierSection(func() {
			fmt.Printf("sum over 1..100 = %d (want 5050)\n", sum)
			fmt.Printf("iterations per process (selfscheduled): %v\n", histogram)
		})

		// Prescheduled DOALL: indices are a pure function of ID and
		// NP — no synchronization needed to distribute them.
		mine = 0
		p.PreschedDo(sched.Range{Start: 1, Last: 100, Incr: 1}, func(i int) {
			mine -= i
		})
		sum += core.Gsum(p, mine)

		// And the other collectives: max, min, and/or.
		busiest := core.Gmax(p, histogram[p.ID()])
		balanced := core.Gand(p, histogram[p.ID()] > 0)

		p.BarrierSection(func() {
			fmt.Printf("after subtracting prescheduled pass: sum = %d (want 0)\n", sum)
			fmt.Printf("busiest process took %d iterations; all did work: %v\n", busiest, balanced)
		})
	})
}
