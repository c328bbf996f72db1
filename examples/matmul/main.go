// Matmul compares scheduling disciplines on dense matrix multiplication —
// the workload class the paper's §3.3 work-distribution constructs were
// designed around — and prints a small speedup table.
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
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 384, "matrix dimension")
	np := flag.Int("np", 8, "number of force processes")
	runs := flag.Int("runs", 3, "timing repetitions")
	flag.Parse()

	a := workload.Matrix(*n, 1)
	b := workload.Matrix(*n, 2)

	seq := stats.Time(*runs, func() { apps.SeqMatMul(a, b, *n) })
	fmt.Printf("sequential %dx%d multiply: %.1f ms\n\n", *n, *n, seq.Median()*1e3)

	tbl := &stats.Table{
		Title:  fmt.Sprintf("C = A·B, n=%d, np=%d", *n, *np),
		Header: []string{"discipline", "ms", "speedup"},
	}
	f := core.New(*np, core.WithChunk(8))
	defer f.Close()
	for _, kind := range []sched.Kind{
		sched.PreschedBlock, sched.PreschedCyclic,
		sched.SelfLock, sched.SelfAtomic, sched.Chunk,
	} {
		kind := kind
		s := stats.Time(*runs, func() { apps.MatMul(f, kind, a, b, *n) })
		tbl.AddRow(kind.String(), s.Median()*1e3, stats.Speedup(seq.Median(), s.Median()))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Verify once against the sequential result.
	got := apps.MatMul(f, sched.SelfAtomic, a, b, *n)
	want := apps.SeqMatMul(a, b, *n)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			fmt.Fprintln(os.Stderr, "verification FAILED")
			os.Exit(1)
		}
	}
	fmt.Println("verification: parallel result matches sequential")
}
