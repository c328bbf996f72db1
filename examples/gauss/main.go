// Gauss solves a dense linear system with the Force idioms the paper's
// numerical codes used: pivot selection in a barrier section (one process
// while the force is suspended), row elimination as a selfscheduled
// DOALL, back-substitution in a final barrier section.
//
//	go run ./examples/gauss [-n 256] [-np 8]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 256, "system size")
	np := flag.Int("np", 8, "number of force processes")
	flag.Parse()

	a, b, want := workload.SystemWithSolution(*n, 42)

	// The solver crosses two barriers per pivot column; the force runs the
	// default barrier, the paper's two-lock relay.
	f := core.New(*np)
	defer f.Close()
	x, err := apps.Solve(f, a, b, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	maxErr := 0.0
	for i := range x {
		if e := math.Abs(x[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}

	fmt.Printf("n=%d  np=%d\n", *n, *np)
	fmt.Printf("max |x - x*| = %.2e (known solution)\n", maxErr)
	fmt.Println()
	fmt.Println("note: the solver crosses 2 barriers per pivot column and streams the")
	fmt.Println("whole remaining matrix each elimination step, so at small n it is")
	fmt.Println("synchronization- and memory-bound — the grain-size economics of the")
	fmt.Println("paper's §4.1.1; forcemark's runtime-apps workload times it.")
}
