package interconnect

// RCLadder is a driver-to-load RC ladder: resistance R[i] connects node i-1
// to node i (node -1 is the driver), and C[i] loads node i to ground.
type RCLadder struct {
	R []float64
	C []float64
}

// Ladder converts a Line (plus an optional far-end load capacitance) into
// an RCLadder for closed-form analysis. The π-segment end half-caps are
// folded into node capacitances. Ladder and the RCLadder methods are kept
// for the coupled-RC noise pulse of ROADMAP item 6 (the path testbench of
// item 3 also needs Ladder); no production code calls them yet.
func (l Line) Ladder(loadC float64) RCLadder {
	n := l.Segments
	r := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i] = l.RSeg
		c[i] = l.CSeg
	}
	// The far-end node only has the final half-cap plus the load; interior
	// nodes get a half from each neighbouring segment.
	c[n-1] = l.CSeg/2 + loadC
	return RCLadder{R: r, C: c}
}

// ElmoreDelay returns the Elmore delay (first moment of the impulse
// response) from the driver to the far end:
//
//	T_D = Σ_i R_path(i) · C_i, with R_path the resistance shared between
//	the source→i and source→out paths (for a ladder: ΣR up to node i).
//
// Elmore is the classical reference the paper's E4 technique is inspired
// by ([2] W.C. Elmore, 1948). Consumer: ROADMAP item 6 (see Ladder).
func (l RCLadder) ElmoreDelay() float64 {
	n := len(l.C)
	d := 0.0
	rAcc := 0.0
	for i := 0; i < n; i++ {
		rAcc += l.R[i]
		d += rAcc * l.C[i]
	}
	return d
}

// DelayAt returns the Elmore delay from the driver to node k (0-based).
// For a ladder: T_k = Σ_i C_i · R(min(i,k)) where R(j) = Σ_{m<=j} R_m.
// Consumer: ROADMAP item 6 (see Ladder).
func (l RCLadder) DelayAt(k int) float64 {
	d := 0.0
	rPrefix := make([]float64, len(l.R))
	acc := 0.0
	for i, r := range l.R {
		acc += r
		rPrefix[i] = acc
	}
	for i, c := range l.C {
		j := i
		if j > k {
			j = k
		}
		d += c * rPrefix[j]
	}
	return d
}

// Moments returns the first m moments of the far-end transfer function
// (m1 = −Elmore). Computed by the standard recursive tree-moment algorithm
// specialized to a ladder: moment k of node voltages given moment k−1.
// Consumer: ROADMAP item 6 (see Ladder).
func (l RCLadder) Moments(m int) []float64 {
	n := len(l.C)
	if n == 0 || m <= 0 {
		return nil
	}
	// v0 = 1 at every node (DC gain of an RC ladder).
	prev := make([]float64, n)
	for i := range prev {
		prev[i] = 1
	}
	out := make([]float64, m)
	cur := make([]float64, n)
	rPrefix := make([]float64, n)
	acc := 0.0
	for i, r := range l.R {
		acc += r
		rPrefix[i] = acc
	}
	for k := 0; k < m; k++ {
		// moment_{k+1}(node j) = −Σ_i C_i · v_k(i) · R(min(i,j)).
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				rj := rPrefix[j]
				if rPrefix[i] < rj {
					rj = rPrefix[i]
				}
				s += l.C[i] * prev[i] * rj
			}
			cur[j] = -s
		}
		out[k] = cur[n-1]
		copy(prev, cur)
	}
	return out
}
