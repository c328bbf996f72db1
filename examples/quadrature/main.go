// Quadrature integrates a sharply peaked function with Askfor — the
// paper's construct for work whose degree of concurrency "is not known at
// compile time" (§3.3): intervals that fail the accuracy test put two
// subinterval tasks back into the shared pool at run time.
//
//	go run ./examples/quadrature [-np 8] [-tol 1e-10]
package main

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/core"
)

func main() {
	np := flag.Int("np", 8, "number of force processes")
	tol := flag.Float64("tol", 1e-10, "absolute tolerance")
	flag.Parse()

	// First: a known closed form. ∫₀¹ 4/(1+x²) dx = π.
	f := core.New(*np)
	defer f.Close()
	pi := apps.Quad(f, apps.Witch, 0, 1, *tol)
	fmt.Printf("∫ 4/(1+x²) over [0,1] = %.12f  (π = %.12f, err %.2e)\n",
		pi, math.Pi, math.Abs(pi-math.Pi))

	// Then: the spiky integrand that motivates dynamic work creation —
	// the pool grows where the function is hard and stays small where it
	// is flat, so the task count is decided at run time.
	before := f.Stats().AskforTasks.Load()
	spike := apps.Quad(f, apps.Spike, 0, 1, *tol)
	fmt.Printf("∫ spike over [0,1]    = %.12f  (sequential %.12f), np=%d, tol=%.0e\n",
		spike, apps.SeqQuad(apps.Spike, 0, 1, *tol), *np, *tol)
	fmt.Printf("Askfor tasks executed: %d\n", f.Stats().AskforTasks.Load()-before)
}
