// Matmul runs dense matrix multiplication — the workload class the
// paper's §3.3 work-distribution constructs were designed around — under
// every scheduling discipline and prints each result's checksum, which
// must match the sequential one.
//
//	go run ./examples/matmul [-n 384] [-np 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 384, "matrix dimension")
	np := flag.Int("np", 8, "number of force processes")
	flag.Parse()

	a := workload.Matrix(*n, 1)
	b := workload.Matrix(*n, 2)
	want := apps.SeqMatMul(a, b, *n)
	sum := 0.0
	for _, v := range want {
		sum += v
	}
	fmt.Printf("C = A·B, n=%d, np=%d\n", *n, *np)
	fmt.Printf("%-16s checksum %.9f\n", "sequential", sum)

	f := core.New(*np)
	defer f.Close()
	for _, kind := range []sched.Kind{
		sched.PreschedBlock, sched.PreschedCyclic,
		sched.SelfLock, sched.SelfAtomic, sched.Chunk,
	} {
		sum = 0.0
		for i, v := range apps.MatMul(f, kind, a, b, *n) {
			if d := v - want[i]; d > 1e-9 || d < -1e-9 {
				fmt.Fprintf(os.Stderr, "%s: element %d differs from the sequential result\n", kind, i)
				os.Exit(1)
			}
			sum += v
		}
		fmt.Printf("%-16s checksum %.9f\n", kind, sum)
	}
}
