package workload

import (
	"math"
	"testing"
)

func TestMatrixVectorSeeded(t *testing.T) {
	a := Matrix(8, 7)
	b := Matrix(8, 7)
	c := Matrix(8, 8)
	if len(a) != 64 {
		t.Fatalf("len = %d", len(a))
	}
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("entry %g out of range", a[i])
		}
	}
	if !same || !diff {
		t.Error("seeding broken")
	}
	v := Vector(5, 3)
	if len(v) != 5 {
		t.Error("vector length")
	}
}

func TestDiagonallyDominant(t *testing.T) {
	n := 12
	m := DiagonallyDominant(n, 5)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				off += math.Abs(m[i*n+j])
			}
		}
		if m[i*n+i] <= off {
			t.Fatalf("row %d not dominant: diag %g vs off %g", i, m[i*n+i], off)
		}
	}
}

func TestSystemWithSolution(t *testing.T) {
	n := 10
	a, b, x := workloadSystem(n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		if math.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("row %d: Ax=%g b=%g", i, s, b[i])
		}
	}
}

func workloadSystem(n int) (a, b, x []float64) { return SystemWithSolution(n, 11) }

func TestGrid(t *testing.T) {
	g := Grid(4)
	for j := 0; j < 4; j++ {
		if g[j] != 1 {
			t.Error("top boundary not 1")
		}
	}
	for i := 4; i < 16; i++ {
		if g[i] != 0 {
			t.Error("interior not 0")
		}
	}
}
