package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Add(0, 0, 1)
	m.Add(0, 0, 2)
	if m.At(0, 0) != 3 {
		t.Errorf("At/Add: %g", m.At(0, 0))
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := a.Clone()
	b.Data[0] = 9
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3, Data: []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}}
	x, err := SolveDense(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: err = %v", err)
	}
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestLURandomResidualProperty(t *testing.T) {
	// Property: for random well-conditioned systems, ‖A·x − b‖ ≈ 0.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := residualInf(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
	}
}

func TestLURefactorReuse(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 1, 1, 3}}
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{10, 2, 2, 8}}
	if err := lu.Refactor(b); err != nil {
		t.Fatal(err)
	}
	x, err := lu.Solve([]float64{12, 10})
	if err != nil {
		t.Fatal(err)
	}
	if r := residualInf(b, x, []float64{12, 10}); r > 1e-10 {
		t.Errorf("refactored solve residual %g", r)
	}
	if err := lu.Refactor(NewMatrix(3, 3)); err == nil {
		t.Error("size change accepted")
	}
}

func TestVectorOps(t *testing.T) {
	v := []float64{1, 2}
	Fill(v, 3)
	if v[0] != 3 || v[1] != 3 {
		t.Errorf("Fill: %v", v)
	}
}
