// Package numeric provides the numerical routines of the fitting code:
// (weighted) least-squares line fits and a small Gauss–Newton solver for
// the SGDP second-order objective.
package numeric

import (
	"errors"
	"math"
)

// ErrDegenerate is returned when a least-squares fit has no unique solution
// (for a line fit: fewer than two distinct abscissae with nonzero weight).
var ErrDegenerate = errors.New("numeric: degenerate least-squares system")

// LineFit fits y ≈ a·x + b in the ordinary least-squares sense. It is the
// unit-weight case of WeightedLineFit inlined without the weight vector:
// the fitting techniques call it once per sweep case, and materializing a
// slice of ones for every fit was a measurable share of their allocations.
func LineFit(xs, ys []float64) (a, b float64, err error) {
	n := len(xs)
	if len(ys) != n {
		panic("numeric: LineFit length mismatch")
	}
	if n < 2 {
		return 0, 0, ErrDegenerate
	}
	var sx, sy float64
	for k := 0; k < n; k++ {
		sx += xs[k]
		sy += ys[k]
	}
	mx := sx / float64(n)
	my := sy / float64(n)
	var sxx, sxy float64
	for k := 0; k < n; k++ {
		dx := xs[k] - mx
		sxx += dx * dx
		sxy += dx * (ys[k] - my)
	}
	if sxx == 0 || math.IsNaN(sxx) {
		return 0, 0, ErrDegenerate
	}
	a = sxy / sxx
	b = my - a*mx
	return a, b, nil
}

// WeightedLineFit fits y ≈ a·x + b minimizing Σ w_k (y_k − a·x_k − b)².
// Weights must be non-negative; at least two points with positive weight
// and distinct abscissae are required.
//
// The normal equations are solved in a form centered on the weighted mean
// of x to avoid catastrophic cancellation when x values are large (times in
// seconds around 1e-9 with spreads of 1e-12 would otherwise lose precision).
func WeightedLineFit(xs, ys, w []float64) (a, b float64, err error) {
	n := len(xs)
	if len(ys) != n || len(w) != n {
		panic("numeric: WeightedLineFit length mismatch")
	}
	var sw, swx, swy float64
	for k := 0; k < n; k++ {
		if w[k] < 0 {
			return 0, 0, errors.New("numeric: negative weight")
		}
		sw += w[k]
		swx += w[k] * xs[k]
		swy += w[k] * ys[k]
	}
	if sw <= 0 {
		return 0, 0, ErrDegenerate
	}
	mx := swx / sw
	my := swy / sw
	var sxx, sxy float64
	for k := 0; k < n; k++ {
		dx := xs[k] - mx
		sxx += w[k] * dx * dx
		sxy += w[k] * dx * (ys[k] - my)
	}
	if sxx == 0 || math.IsNaN(sxx) {
		return 0, 0, ErrDegenerate
	}
	a = sxy / sxx
	b = my - a*mx
	return a, b, nil
}

// GaussNewton2 minimizes Σ r_k(p)² over a two-parameter vector p using a
// damped Gauss–Newton iteration. residJac fills resid with the residuals
// and jac with the P×2 Jacobian (rows: ∂r_k/∂p0, ∂r_k/∂p1) at p.
//
// The returned parameters are the best iterate found; ok reports whether the
// iteration improved on the initial point and converged. Callers are
// expected to fall back to their seed when ok is false.
func GaussNewton2(p0 [2]float64, nres int,
	residJac func(p [2]float64, resid []float64, jac [][2]float64),
	maxIter int, tol float64) (p [2]float64, ok bool) {

	// The two scratch slices are this routine's only allocations, made once
	// per fit; the callback evaluations dominate its cost, so the loop below
	// is arranged to evaluate residJac exactly once per visited point (the
	// entry evaluation doubles as iteration 1's Jacobian, and an accepted
	// candidate's evaluation carries into the next iteration).
	resid := make([]float64, nres)
	jac := make([][2]float64, nres)
	cost := func(p [2]float64) float64 {
		residJac(p, resid, jac)
		s := 0.0
		for _, r := range resid {
			s += r * r
		}
		return s
	}

	p = p0
	best := p0
	bestCost := cost(p0)
	if math.IsNaN(bestCost) || math.IsInf(bestCost, 0) {
		return p0, false
	}
	initCost := bestCost
	cur := bestCost
	converged := false

	for iter := 0; iter < maxIter; iter++ {
		// resid/jac hold the evaluation at p: from the entry cost(p0) on the
		// first iteration, from the accepted candidate's cost(cand)
		// afterwards (a rejected candidate never reaches the next iteration:
		// the attempt loop reuses the sums below, and exhausting it breaks).
		// Normal equations JᵀJ δ = −Jᵀr for the 2×2 system.
		var j00, j01, j11, g0, g1 float64
		for k := 0; k < nres; k++ {
			j00 += jac[k][0] * jac[k][0]
			j01 += jac[k][0] * jac[k][1]
			j11 += jac[k][1] * jac[k][1]
			g0 += jac[k][0] * resid[k]
			g1 += jac[k][1] * resid[k]
		}
		det := j00*j11 - j01*j01
		if det == 0 || math.IsNaN(det) {
			break
		}
		// Levenberg damping: scale the diagonal until the step helps.
		lambda := 1e-12 * (j00 + j11)
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			a00 := j00 + lambda
			a11 := j11 + lambda
			d := a00*a11 - j01*j01
			if d == 0 {
				break
			}
			d0 := (-g0*a11 + g1*j01) / d
			d1 := (-g1*a00 + g0*j01) / d
			cand := [2]float64{p[0] + d0, p[1] + d1}
			cc := cost(cand)
			if !math.IsNaN(cc) && cc < cur {
				rel := (cur - cc) / math.Max(cur, 1e-300)
				p = cand
				cur = cc
				improved = true
				if cc < bestCost {
					best, bestCost = cand, cc
				}
				if rel < tol {
					converged = true
				}
				break
			}
			lambda = math.Max(lambda*10, 1e-9*(j00+j11))
		}
		if !improved || converged {
			if !improved && iter > 0 {
				converged = true // stalled at a (local) minimum
			}
			break
		}
	}
	return best, converged || bestCost < initCost
}
