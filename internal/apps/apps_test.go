package apps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestIdx2(t *testing.T) {
	if Idx2(0, 0, 5) != 0 || Idx2(2, 3, 5) != 13 {
		t.Error("Idx2 wrong")
	}
}

func TestMatMulMatchesSeq(t *testing.T) {
	const n = 24
	a := workload.Matrix(n, 1)
	b := workload.Matrix(n, 2)
	want := SeqMatMul(a, b, n)
	for _, kind := range sched.Kinds() {
		for _, np := range []int{1, 3, 8} {
			f := core.New(np)
			got := MatMul(f, kind, a, b, n)
			if !almostEqual(got, want, 1e-12) {
				t.Errorf("%v np=%d: result differs from sequential", kind, np)
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	const n = 16
	a := workload.Matrix(n, 3)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[Idx2(i, i, n)] = 1
	}
	got := MatMul(core.New(4), sched.SelfAtomic, a, id, n)
	if !almostEqual(got, a, 1e-12) {
		t.Error("A·I != A")
	}
}

func TestSeqSolveKnownSolution(t *testing.T) {
	const n = 20
	a, b, want := workload.SystemWithSolution(n, 7)
	got, err := SeqSolve(a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, want, 1e-8) {
		t.Error("sequential solver wrong")
	}
}

func TestSolveMatchesKnownSolution(t *testing.T) {
	const n = 24
	a, b, want := workload.SystemWithSolution(n, 9)
	for _, np := range []int{1, 2, 5} {
		got, err := Solve(core.New(np), a, b, n)
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if !almostEqual(got, want, 1e-8) {
			t.Errorf("np=%d: parallel solution wrong", np)
		}
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the leading position forces a row swap (det = -4).
	a := []float64{
		0, 2, 1,
		1, 1, 1,
		2, 0, 3,
	}
	x := []float64{1, 2, 3}
	b := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b[i] += a[Idx2(i, j, 3)] * x[j]
		}
	}
	got, err := Solve(core.New(3), a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, x, 1e-9) {
		t.Errorf("got %v, want %v", got, x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := []float64{
		1, 2,
		2, 4, // linearly dependent
	}
	b := []float64{1, 2}
	if _, err := SeqSolve(a, b, 2); err == nil {
		t.Error("sequential solver accepted singular matrix")
	}
	if _, err := Solve(core.New(3), a, b, 2); err == nil {
		t.Error("parallel solver accepted singular matrix")
	}
}

func TestJacobiMatchesSeq(t *testing.T) {
	const n = 20
	grid := workload.Grid(n)
	want := SeqJacobi(grid, n, 1e-4, 500)
	for _, np := range []int{1, 4} {
		got := Jacobi(core.New(np), grid, n, 1e-4, 500)
		if got.Sweeps != want.Sweeps {
			t.Errorf("np=%d: %d sweeps, want %d", np, got.Sweeps, want.Sweeps)
		}
		if !almostEqual(got.Grid, want.Grid, 1e-12) {
			t.Errorf("np=%d: grid differs", np)
		}
	}
}

func TestJacobiRespectsMaxSweeps(t *testing.T) {
	const n = 16
	got := Jacobi(core.New(2), workload.Grid(n), n, 0, 7) // tol 0 never converges
	if got.Sweeps != 7 {
		t.Errorf("sweeps = %d, want 7", got.Sweeps)
	}
}

func TestScanMatchesSeq(t *testing.T) {
	// Sizes 0 and below np leave some blocks empty.
	for _, size := range []int{0, 1, 2, 7, 64, 100} {
		v := workload.Vector(size, int64(size))
		want := SeqScan(v)
		for _, np := range []int{1, 3, 8} {
			f := core.New(np)
			got := Scan(f, v)
			f.Close()
			if !almostEqual(got, want, 1e-9) {
				t.Errorf("size=%d np=%d: scan differs", size, np)
			}
			if np > 1 {
				continue
			}
			// At np=1 pass 1 is empty and pass 2 is SeqScan's loop.
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("size=%d np=1: element %d is %v, SeqScan's %v", size, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// The block scan does SeqScan's work: two DOALLs and no barrier per call,
// at every n.
func TestScanWorkIsLinear(t *testing.T) {
	for _, n := range []int{1, 1000, 1 << 16} {
		v := workload.Vector(n, 5)
		for _, np := range []int{1, 2, 3, 8} {
			f := core.New(np)
			before := f.Stats()
			Scan(f, v)
			after := f.Stats()
			f.Close()
			loops := after.Loops.Load() - before.Loops.Load()
			barriers := after.Barriers.Load() - before.Barriers.Load()
			if loops != int64(2*np) || barriers != 0 {
				t.Errorf("n=%d np=%d: %d loop entries and %d barriers, want %d and 0", n, np, loops, barriers, 2*np)
			}
		}
	}
}

func TestQuadPi(t *testing.T) {
	want := math.Pi
	if got := SeqQuad(Witch, 0, 1, 1e-10); math.Abs(got-want) > 1e-8 {
		t.Errorf("SeqQuad = %.12f", got)
	}
	for _, np := range []int{1, 4, 8} {
		got := Quad(core.New(np), Witch, 0, 1, 1e-10)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("np=%d: Quad = %.12f, want pi", np, got)
		}
	}
}

func TestQuadSpikeMatchesSeq(t *testing.T) {
	want := SeqQuad(Spike, 0, 1, 1e-9)
	got := Quad(core.New(6), Spike, 0, 1, 1e-9)
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("parallel %.10g vs sequential %.10g", got, want)
	}
}

func TestHistogramsMatchSeq(t *testing.T) {
	const bins = 32
	// Lengths on both sides of the private version's grant edges.
	for _, n := range []int{0, 1, histGrant - 1, histGrant, histGrant + 1, 3*histGrant + 7} {
		data := workload.Vector(n, 13)
		for i := range data {
			data[i] = (data[i] + 1) / 2 // into [0,1)
		}
		want := SeqHistogram(data, bins)
		for _, np := range []int{1, 3, 8} {
			f := core.New(np)
			gotC := HistogramCritical(f, data, bins)
			gotP := HistogramPrivate(f, data, bins)
			f.Close()
			for b := 0; b < bins; b++ {
				if gotC[b] != want[b] {
					t.Fatalf("n=%d np=%d: critical histogram bin %d: %d vs %d", n, np, b, gotC[b], want[b])
				}
				if gotP[b] != want[b] {
					t.Fatalf("n=%d np=%d: private histogram bin %d: %d vs %d", n, np, b, gotP[b], want[b])
				}
			}
		}
	}
}

func TestBinOfClamps(t *testing.T) {
	if binOf(-0.1, 10) != 0 || binOf(1.5, 10) != 9 || binOf(0.55, 10) != 5 {
		t.Error("binOf clamp/placement wrong")
	}
}

func TestNBodyMatchesSeq(t *testing.T) {
	const n, steps = 40, 5
	seqB := NewBodies(n)
	for s := 0; s < steps; s++ {
		SeqNBodyStep(seqB, 1e-3)
	}
	for _, np := range []int{1, 4} {
		parB := NewBodies(n)
		NBodySteps(core.New(np), sched.SelfAtomic, parB, 1e-3, steps)
		if !almostEqual(parB.X, seqB.X, 1e-10) || !almostEqual(parB.VY, seqB.VY, 1e-10) {
			t.Errorf("np=%d: trajectories diverge from sequential", np)
		}
	}
}

func TestNBodyEnergyRoughlyConserved(t *testing.T) {
	b := NewBodies(24)
	e0 := b.Energy()
	NBodySteps(core.New(4), sched.PreschedCyclic, b, 1e-4, 50)
	e1 := b.Energy()
	if math.Abs(e1-e0) > 0.05*math.Abs(e0)+0.05 {
		t.Errorf("energy drifted: %g -> %g", e0, e1)
	}
}

func TestBodiesClone(t *testing.T) {
	b := NewBodies(8)
	c := b.Clone()
	c.X[0] = 99
	if b.X[0] == 99 {
		t.Error("Clone aliases storage")
	}
}

// Property: matmul distributes over identity blocks — (A·I) row sums match
// A row sums for random small matrices and any force size.
func TestQuickMatMulRowSums(t *testing.T) {
	prop := func(seed int64, npRaw uint8) bool {
		const n = 8
		np := int(npRaw)%6 + 1
		a := workload.Matrix(n, seed)
		id := make([]float64, n*n)
		for i := 0; i < n; i++ {
			id[Idx2(i, i, n)] = 1
		}
		got := MatMul(core.New(np), sched.Chunk, a, id, n)
		return almostEqual(got, a, 1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: parallel scan of nonnegative input is nondecreasing and ends
// at the total.
func TestQuickScanInvariants(t *testing.T) {
	prop := func(raw []uint8, npRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		np := int(npRaw)%5 + 1
		v := make([]float64, len(raw))
		total := 0.0
		for i, x := range raw {
			v[i] = float64(x)
			total += v[i]
		}
		got := Scan(core.New(np), v)
		prev := math.Inf(-1)
		for _, x := range got {
			if x < prev {
				return false
			}
			prev = x
		}
		return math.Abs(got[len(got)-1]-total) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
