package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randSparseSPD builds a deterministic diagonally-dominant sparse matrix
// shaped like an MNA stamp (symmetric pattern, strong diagonal) plus its
// CSR pattern.
func randSparseSPD(t *testing.T, n int, rng *rand.Rand) (*Matrix, []int32, []int32) {
	t.Helper()
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] = 2 + rng.Float64()
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64() - 0.5
			a.Add(i, j, v)
			a.Add(j, i, v*0.7)
			a.Add(i, i, math.Abs(v)+1)
			a.Add(j, j, math.Abs(v)+1)
		}
	}
	var rowPtr, cols []int32
	rowPtr = append(rowPtr, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.At(i, j) != 0 {
				cols = append(cols, int32(j))
			}
		}
		rowPtr = append(rowPtr, int32(len(cols)))
	}
	return a, rowPtr, cols
}

func residualInf(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x[j]
		}
		if r := math.Abs(s); r > worst {
			worst = r
		}
	}
	return worst
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 17, 60} {
		a, rowPtr, cols := randSparseSPD(t, n, rng)
		dense, err := NewLU(a)
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		sym, err := NewSparseSymbolic(n, rowPtr, cols, dense.piv)
		if err != nil {
			t.Fatalf("n=%d symbolic: %v", n, err)
		}
		slu := NewSparseLU(sym)
		// Refactor twice with different values over the same pattern — the
		// second refactor is the steady-state path the simulator exercises.
		for trial := 0; trial < 2; trial++ {
			if trial == 1 {
				for i := range a.Data {
					if a.Data[i] != 0 {
						a.Data[i] *= 1 + 0.01*rng.Float64()
					}
				}
				if err := dense.Refactor(a); err != nil {
					t.Fatalf("n=%d dense refactor: %v", n, err)
				}
			}
			if err := slu.Refactor(a); err != nil {
				t.Fatalf("n=%d trial=%d sparse refactor: %v", n, trial, err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.Float64() - 0.5
			}
			xs := make([]float64, n)
			if err := slu.SolveInto(xs, b); err != nil {
				t.Fatalf("sparse solve: %v", err)
			}
			if r := residualInf(a, xs, b); r > 1e-10 {
				t.Errorf("n=%d trial=%d sparse residual %g", n, trial, r)
			}
			xd := make([]float64, n)
			if err := dense.SolveInto(xd, b); err != nil {
				t.Fatalf("dense solve: %v", err)
			}
			if d := MaxAbsDiff(xs, xd); d > 1e-9 {
				t.Errorf("n=%d trial=%d sparse vs dense solution diff %g", n, trial, d)
			}
		}
	}
}

func TestSparsePivotDriftFallsBackDense(t *testing.T) {
	// Factor a matrix whose pivot order works, then refactor values that
	// make the frozen order unstable: the guard must fire, and CachedLU
	// must recover via the dense path.
	n := 2
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 1, 1, 4}}
	rowPtr := []int32{0, 2, 4}
	cols := []int32{0, 1, 0, 1}

	var clu CachedLU[int]
	clu.SetPattern(n, rowPtr, cols)
	if _, err := clu.Ensure(a, 1, false); err != nil { // dense seed
		t.Fatal(err)
	}
	if _, err := clu.Ensure(a, 2, false); err != nil { // sparse steady state
		t.Fatal(err)
	}
	if !clu.Sparse() {
		t.Fatal("expected sparse factorization after seeding")
	}
	// Same pattern, but the frozen pivot (row 0 first) is now tiny relative
	// to its row: drift guard fires, dense fallback must still solve.
	bad := &Matrix{Rows: 2, Cols: 2, Data: []float64{1e-9, 1, 1, 1e-9}}
	slu := NewSparseLU(clu.sym)
	if err := slu.Refactor(bad); !errors.Is(err, ErrPivotDrift) {
		t.Fatalf("want ErrPivotDrift, got %v", err)
	}
	if _, err := clu.Ensure(bad, 3, false); err != nil {
		t.Fatalf("CachedLU fallback: %v", err)
	}
	if clu.Sparse() {
		t.Fatal("drifted refactor should have landed dense")
	}
	x := make([]float64, n)
	if err := clu.SolveInto(x, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if r := residualInf(bad, x, []float64{1, 2}); r > 1e-12 {
		t.Errorf("fallback residual %g", r)
	}
}

func TestCachedLUSparseSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	a, rowPtr, cols := randSparseSPD(t, n, rng)
	var clu CachedLU[int]
	clu.SetPattern(n, rowPtr, cols)
	for key := 0; key < 10; key++ {
		for i := range a.Data {
			if a.Data[i] != 0 {
				a.Data[i] *= 1 + 1e-3*rng.Float64()
			}
		}
		if _, err := clu.Ensure(a, key, false); err != nil {
			t.Fatalf("key=%d: %v", key, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()
		}
		x := make([]float64, n)
		if err := clu.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if r := residualInf(a, x, b); r > 1e-9 {
			t.Errorf("key=%d residual %g (sparse=%v)", key, r, clu.Sparse())
		}
	}
	if clu.SparseRefactors != 9 {
		t.Errorf("SparseRefactors=%d, want 9 (all but the dense seed)", clu.SparseRefactors)
	}
	// Re-arming the identical pattern keeps the seeded order.
	clu.SetPattern(n, rowPtr, cols)
	if clu.sym == nil {
		t.Error("identical SetPattern dropped the symbolic seed")
	}
	clu.ClearPattern()
	if clu.sym != nil || clu.Sparse() {
		t.Error("ClearPattern left sparse state armed")
	}
}

// TestCachedLUSnapshotRestore: a restored snapshot — dense factors without
// a pattern, the dense seed of a pattern, or sparse factors — makes the
// next Ensure and SolveInto behave bit for bit as on the cache it was taken
// from, on a cache that has since moved on or on a fresh one, and an
// unchanged cache hands back its previous snapshot instead of a copy.
func TestCachedLUSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	a, rowPtr, cols := randSparseSPD(t, n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	solve := func(c *CachedLU[int]) []float64 {
		t.Helper()
		x := make([]float64, n)
		if err := c.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		return x
	}
	perturb := func() {
		for i := range a.Data {
			if a.Data[i] != 0 {
				a.Data[i] *= 1 + 1e-3*rng.Float64()
			}
		}
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: x[%d] = %.17g, want %.17g", what, i, got[i], want[i])
			}
		}
	}

	var c CachedLU[int]
	var snaps []*CachedLUState[int]
	var want [][]float64
	if _, err := c.Ensure(a, 0, false); err != nil { // dense, no pattern
		t.Fatal(err)
	}
	snaps, want = append(snaps, c.Snapshot(nil)), append(want, solve(&c))
	c.SetPattern(n, rowPtr, cols)
	for key := 1; key <= 3; key++ { // dense seed, then sparse
		perturb()
		if _, err := c.Ensure(a, key, false); err != nil {
			t.Fatal(err)
		}
		snaps, want = append(snaps, c.Snapshot(snaps[len(snaps)-1])), append(want, solve(&c))
	}
	if s := c.Snapshot(snaps[len(snaps)-1]); s != snaps[len(snaps)-1] {
		t.Error("snapshot of an unchanged cache made a new copy")
	}
	if !c.Sparse() {
		t.Fatal("the last snapshot should hold sparse factors")
	}

	var fresh CachedLU[int]
	for i, s := range snaps {
		for _, r := range []*CachedLU[int]{&c, &fresh} {
			r.Restore(s)
			same("restored solve", solve(r), want[i])
			// The restored key is honored: same key reuses, a new key
			// refactors exactly as the original cache would have.
			if refactored, err := r.Ensure(a, s.key, false); err != nil || refactored {
				t.Fatalf("snapshot %d: Ensure on its key refactored=%v err=%v", i, refactored, err)
			}
		}
		perturbed := a.Clone()
		r1, err1 := c.Ensure(perturbed, 100+i, false)
		r2, err2 := fresh.Ensure(perturbed, 100+i, false)
		if err1 != nil || err2 != nil || r1 != r2 || c.Sparse() != fresh.Sparse() {
			t.Fatalf("snapshot %d: refactor diverged (%v %v, %v %v)", i, r1, r2, err1, err2)
		}
		same("refactor after restore", solve(&fresh), solve(&c))
	}
}
