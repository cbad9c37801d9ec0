package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLineFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	a, b, err := LineFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-12 || math.Abs(b+7) > 1e-12 {
		t.Errorf("fit = %g, %g", a, b)
	}
}

func TestWeightedLineFitIgnoresZeroWeight(t *testing.T) {
	// An outlier with zero weight must not perturb the fit.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 100}
	w := []float64{1, 1, 1, 0}
	a, b, err := WeightedLineFit(xs, ys, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 || math.Abs(b) > 1e-12 {
		t.Errorf("fit = %g, %g; outlier leaked in", a, b)
	}
}

func TestWeightedLineFitLargeOffsets(t *testing.T) {
	// The centered formulation must survive times around 1e-9 with ps-level
	// structure — the regime every STA fit lives in.
	xs := []float64{1.0000e-9, 1.0001e-9, 1.0002e-9, 1.0003e-9}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2e9*x - 1.5
	}
	a, b, err := LineFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2e9)/2e9 > 1e-6 || math.Abs(b+1.5) > 1e-5 {
		t.Errorf("fit = %g, %g", a, b)
	}
}

func TestWeightedLineFitDegenerate(t *testing.T) {
	if _, _, err := WeightedLineFit([]float64{1, 1}, []float64{0, 1}, []float64{1, 1}); !errors.Is(err, ErrDegenerate) {
		t.Error("identical abscissae accepted")
	}
	if _, _, err := WeightedLineFit([]float64{0, 1}, []float64{0, 1}, []float64{0, 0}); !errors.Is(err, ErrDegenerate) {
		t.Error("all-zero weights accepted")
	}
	if _, _, err := WeightedLineFit([]float64{0, 1}, []float64{0, 1}, []float64{-1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedFitResidualOrthogonalityProperty(t *testing.T) {
	// Property: at the optimum, the weighted residuals are orthogonal to
	// both regressors (1 and x).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		w := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
			w[i] = rng.Float64()
		}
		a, b, err := WeightedLineFit(xs, ys, w)
		if errors.Is(err, ErrDegenerate) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var s0, s1 float64
		for i := range xs {
			r := ys[i] - a*xs[i] - b
			s0 += w[i] * r
			s1 += w[i] * r * xs[i]
		}
		if math.Abs(s0) > 1e-8 || math.Abs(s1) > 1e-8 {
			t.Fatalf("trial %d: normal equations violated: %g %g", trial, s0, s1)
		}
	}
}

func TestGaussNewton2Quadratic(t *testing.T) {
	// Fit residuals r_k = (p0·x_k + p1) − y_k: GN must find the exact LS
	// solution of a linear problem in one step.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	p, ok := GaussNewton2([2]float64{0, 0}, len(xs),
		func(p [2]float64, resid []float64, jac [][2]float64) {
			for k := range xs {
				resid[k] = p[0]*xs[k] + p[1] - ys[k]
				jac[k][0] = xs[k]
				jac[k][1] = 1
			}
		}, 50, 1e-14)
	if !ok {
		t.Fatal("GN did not converge")
	}
	if math.Abs(p[0]-2) > 1e-8 || math.Abs(p[1]-1) > 1e-8 {
		t.Errorf("GN = %v", p)
	}
}

func TestGaussNewton2Nonlinear(t *testing.T) {
	// Residuals r_k = p0·exp(p1·x_k) − y_k with y from known parameters.
	xs := []float64{0, 0.5, 1, 1.5, 2}
	const a0, b0 = 1.5, -0.8
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = a0 * math.Exp(b0*x)
	}
	p, ok := GaussNewton2([2]float64{1, -1}, len(xs),
		func(p [2]float64, resid []float64, jac [][2]float64) {
			for k, x := range xs {
				e := math.Exp(p[1] * x)
				resid[k] = p[0]*e - ys[k]
				jac[k][0] = e
				jac[k][1] = p[0] * x * e
			}
		}, 100, 1e-14)
	if !ok {
		t.Fatal("GN did not converge")
	}
	if math.Abs(p[0]-a0) > 1e-6 || math.Abs(p[1]-b0) > 1e-6 {
		t.Errorf("GN = %v, want (%g, %g)", p, a0, b0)
	}
}

func TestGaussNewton2RejectsNaN(t *testing.T) {
	_, ok := GaussNewton2([2]float64{math.NaN(), 0}, 2,
		func(p [2]float64, resid []float64, jac [][2]float64) {
			resid[0], resid[1] = math.NaN(), math.NaN()
		}, 10, 1e-12)
	if ok {
		t.Error("NaN start reported as converged")
	}
}
