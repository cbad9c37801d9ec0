package linalg

import "math"

// Fill sets every element of v to val.
func Fill(v []float64, val float64) {
	for i := range v {
		v[i] = val
	}
}

// MaxAbsDiff returns max_i |a[i]-b[i]| (panics on length mismatch). The
// linalg tests compare sparse and dense solutions with it.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MaxAbsDiff length mismatch")
	}
	m := 0.0
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > m {
			m = d
		}
	}
	return m
}
