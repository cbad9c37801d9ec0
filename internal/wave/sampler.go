package wave

// Sampler evaluates one waveform at a run of ascending times without
// copying it. Slope and Envelope return exactly what the waveform's
// Derivative().At and Monotonicized(dir).At return at the same time, but
// the sampler walks a cursor forward instead of binary-searching each
// query, computes node slopes on demand and carries the monotone envelope
// along as the cursor passes each sample. A query that falls behind the
// cursor restarts the walk from the first sample, so any query order is
// answered correctly; ascending order is what makes it cheap.
//
// A Sampler is a small value with mutable state: give each goroutine its
// own. The waveform is only read.
type Sampler struct {
	w   *Waveform
	dt  float64 // time shift: sample k sits at w.T[k] + dt
	dir Edge    // direction of the monotone envelope
	i   int     // cursor: the smallest sample index whose time is >= the last query
	env float64 // envelope value of sample i-1 (unused while i == 0)
}

// Sampler returns a sampler of w translated by dt in time — the waveform
// w.Shifted(dt) describes, bit for bit, without the copy — whose Envelope
// follows dir.
func (w *Waveform) Sampler(dt float64, dir Edge) Sampler {
	return Sampler{w: w, dt: dt, dir: dir}
}

// time returns the shifted time of sample k, formed as Shifted forms it.
func (s *Sampler) time(k int) float64 { return s.w.T[k] + s.dt }

// bracket moves the cursor to t and reports the samples At would read
// there: sample k alone when exact is true (t clamped to an end, or on a
// sample), else the segment from k-1 to k.
func (s *Sampler) bracket(t float64) (k int, exact bool) {
	if s.i > 0 && s.time(s.i-1) >= t {
		s.i = 0 // earlier than the last query: walk again from the start
	}
	n := len(s.w.T)
	for s.i < n && s.time(s.i) < t {
		s.env = s.envelopeAt(s.i)
		s.i++
	}
	switch {
	case s.i == 0:
		return 0, true
	case s.i == n:
		return n - 1, true
	case s.time(s.i) == t:
		return s.i, true
	}
	return s.i, false
}

// envelopeAt is the Monotonicized recurrence for sample k, which must be
// the cursor's sample or the one before it: the sample's voltage unless it
// falls below (rising) or above (falling) the envelope of sample k-1.
func (s *Sampler) envelopeAt(k int) float64 {
	if k < s.i {
		return s.env
	}
	v := s.w.V[k]
	if k == 0 {
		return v
	}
	if s.dir == Rising {
		if v < s.env {
			return s.env
		}
	} else if v > s.env {
		return s.env
	}
	return v
}

// Slope returns dv/dt at t, as Derivative().At does: the node slopes of
// the bracketing samples, interpolated linearly.
func (s *Sampler) Slope(t float64) float64 {
	k, exact := s.bracket(t)
	if exact {
		return s.w.slopeAt(k, s.dt)
	}
	return lerp(s.time(k-1), s.time(k), s.w.slopeAt(k-1, s.dt), s.w.slopeAt(k, s.dt), t)
}

// Envelope returns the monotone envelope at t, as Monotonicized(dir).At
// does.
func (s *Sampler) Envelope(t float64) float64 {
	k, exact := s.bracket(t)
	if exact {
		return s.envelopeAt(k)
	}
	return lerp(s.time(k-1), s.time(k), s.env, s.envelopeAt(k), t)
}
