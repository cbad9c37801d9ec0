// Package numeric provides the numerical routines shared by the waveform,
// characterization and fitting code: root finding, and (weighted)
// least-squares line fits plus a small Gauss–Newton driver for the SGDP
// second-order objective.
package numeric

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iteration fails to reach its tolerance
// within its iteration budget.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// Brent finds a root of f in [a, b] with Brent's method (inverse quadratic
// interpolation guarded by bisection). Returns ErrNoBracket if the interval
// does not bracket a sign change. Its consumer is the worst-alignment
// refinement of ROADMAP item 4 (a bounded search over Cfg I's aggressor
// offset); nothing calls it yet.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	d := b - a
	mflag := true
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if fa*fs < 0 {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrNoConverge
}
