package wave

import (
	"math"
	"testing"
)

// noisyEdgeWaveform builds a rising edge with a superimposed oscillation —
// the shape the replay hot loop measures arrivals on — sized like a spice
// transient (a few thousand samples, several 0.5·Vdd crossings).
func noisyEdgeWaveform(samples int) *Waveform {
	ts := make([]float64, samples)
	vs := make([]float64, samples)
	for i := range ts {
		t := float64(i) * 1e-12
		ts[i] = t
		edge := 1.2 / (1 + math.Exp(-(t-2e-9)/2e-10))
		noise := 0.15 * math.Sin(t/5e-11) * math.Exp(-math.Abs(t-2e-9)/4e-10)
		vs[i] = edge + noise
	}
	return MustNew(ts, vs)
}

// BenchmarkCrossings covers the arrival-measurement hot path. The
// First/Last variants must report 0 allocs/op: they are evaluated
// once per cached replay, so a per-call slice would dominate the replay
// cache's win.
func BenchmarkCrossings(b *testing.B) {
	w := noisyEdgeWaveform(4096)
	const level = 0.6

	b.Run("Crossings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(w.Crossings(level)) == 0 {
				b.Fatal("no crossings")
			}
		}
	})
	b.Run("FirstCrossing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.FirstCrossing(level); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LastCrossing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.LastCrossing(level); err != nil {
				b.Fatal(err)
			}
		}
	})
}
