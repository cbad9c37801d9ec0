package wave

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// samplerWave builds a random waveform with plateaus, reversals and
// uneven spacing: the shapes that exercise every branch of the envelope
// recurrence and the three-point slope.
func samplerWave(rng *rand.Rand, n int) *Waveform {
	ts := make([]float64, n)
	vs := make([]float64, n)
	t := rng.NormFloat64() * 1e-9
	for i := range ts {
		t += (0.01 + rng.Float64()) * 1e-11
		ts[i] = t
		switch {
		case i > 0 && rng.Intn(4) == 0:
			vs[i] = vs[i-1] // plateau
		default:
			vs[i] = 1.2*float64(i)/float64(n) + 0.3*rng.NormFloat64()
		}
	}
	return MustNew(ts, vs)
}

// samplerQueries returns ascending query times for a waveform whose
// samples sit at ts: every sample time, every midpoint, points outside the
// span and random points inside it.
func samplerQueries(rng *rand.Rand, ts []float64) []float64 {
	q := append([]float64(nil), ts...)
	for i := 0; i+1 < len(ts); i++ {
		q = append(q, 0.5*(ts[i]+ts[i+1]))
	}
	lo, hi := ts[0], ts[len(ts)-1]
	q = append(q, lo-1e-9, hi+1e-9)
	for i := 0; i < 20; i++ {
		q = append(q, lo+(hi-lo)*rng.Float64())
	}
	sort.Float64s(q)
	return q
}

// TestSamplerMatchesCopies: Slope and Envelope must return exactly what
// Derivative().At and Monotonicized(dir).At return on the
// shifted copy the sampler stands in for — for ascending queries (the
// cursor walk), for a shuffled order (restarts), on and between samples
// and outside the span, unshifted and shifted.
func TestSamplerMatchesCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		w := samplerWave(rng, 1+rng.Intn(40))
		dt := 0.0
		if trial%2 == 1 {
			dt = rng.NormFloat64() * 1e-9
		}
		ref := w
		if dt != 0 {
			ref = w.Shifted(dt)
		}
		asc := samplerQueries(rng, ref.T)
		shuffled := append([]float64(nil), asc...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		slope := ref.Derivative()
		for _, dir := range []Edge{Rising, Falling} {
			env := ref.Monotonicized(dir)
			for order, qs := range [][]float64{asc, shuffled} {
				s := w.Sampler(dt, dir)
				for _, q := range qs {
					for _, c := range []struct {
						name      string
						got, want float64
					}{
						{"Slope", s.Slope(q), slope.At(q)},
						{"Envelope", s.Envelope(q), env.At(q)},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Fatalf("trial %d (n=%d dt=%g %v, order %d): %s(%g) = %.17g, copy gives %.17g",
								trial, w.Len(), dt, dir, order, c.name, q, c.got, c.want)
						}
					}
				}
			}
		}
	}
}

// TestSamplerAllocatesNothing: the sampler reads the waveform in place.
func TestSamplerAllocatesNothing(t *testing.T) {
	w := noisyEdgeWaveform(512)
	qs := samplerQueries(rand.New(rand.NewSource(2)), w.T)
	sink := 0.0
	allocs := testing.AllocsPerRun(10, func() {
		s := w.Sampler(-1e-10, Rising)
		for _, q := range qs {
			sink += s.Slope(q) + s.Envelope(q)
		}
	})
	if allocs != 0 {
		t.Errorf("sampler allocated %v times per run of %d queries", allocs, len(qs))
	}
	_ = sink
}
