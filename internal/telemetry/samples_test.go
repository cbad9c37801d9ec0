package telemetry

import (
	"math"
	"reflect"
	"testing"
)

func TestTimerSamplesOffByDefault(t *testing.T) {
	reg := New()
	tm := reg.Timer("t")
	tm.Observe(1)
	tm.Observe(2)
	if s := tm.Samples(); s != nil {
		t.Errorf("Samples without KeepSamples = %v, want nil", s)
	}
}

func TestTimerKeepSamplesRing(t *testing.T) {
	reg := New()
	tm := reg.Timer("t")
	tm.KeepSamples(3)
	for i := 1; i <= 5; i++ {
		tm.Observe(float64(i))
	}
	// Ring of 3 after 5 observations: the 3 most recent.
	got := tm.Samples()
	if len(got) != 3 {
		t.Fatalf("len(Samples) = %d, want 3", len(got))
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 3+4+5 {
		t.Errorf("ring holds %v, want the 3 most recent observations {3,4,5}", got)
	}
	// Aggregates still cover everything observed.
	if st := tm.Stats(); st.Count != 5 || st.Sum != 15 {
		t.Errorf("stats = %+v, want count=5 sum=15", st)
	}
	// Disabling drops retention but not aggregates.
	tm.KeepSamples(0)
	if s := tm.Samples(); s != nil {
		t.Errorf("Samples after disable = %v, want nil", s)
	}
	if st := tm.Stats(); st.Count != 5 {
		t.Errorf("disable dropped aggregates: %+v", st)
	}
}

// TestKeepSamplesResizeKeepsMostRecent: resizing a ring that has wrapped
// keeps the most recent samples that fit, and the resized ring goes on
// evicting the oldest first, for a timer and a bucketed histogram alike.
// Observing into a full ring allocates nothing.
func TestKeepSamplesResizeKeepsMostRecent(t *testing.T) {
	type instrument interface {
		Observe(float64)
		KeepSamples(int)
		Samples() []float64
	}
	for _, c := range []struct {
		name string
		make func() instrument
	}{
		{"timer", func() instrument { return New().Timer("t") }},
		{"histogram", func() instrument { return New().Histogram("h") }},
	} {
		wrapped := func() instrument {
			in := c.make()
			in.KeepSamples(4)
			for i := 1; i <= 6; i++ { // wraps: holds 3..6
				in.Observe(float64(i))
			}
			return in
		}

		shrunk := wrapped()
		shrunk.KeepSamples(2)
		if got, want := shrunk.Samples(), []float64{5, 6}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shrink to 2 holds %v, want %v", c.name, got, want)
		}

		grown := wrapped()
		grown.KeepSamples(8)
		for i := 7; i <= 11; i++ {
			grown.Observe(float64(i))
		}
		if got, want := grown.Samples(), []float64{4, 5, 6, 7, 8, 9, 10, 11}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: grow to 8, then 7..11, holds %v, want %v", c.name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { grown.Observe(12) }); allocs != 0 {
			t.Errorf("%s: Observe into a full ring allocates %v times", c.name, allocs)
		}
	}
}

func TestTimerKeepSamplesNilSafe(t *testing.T) {
	var tm *Histogram
	tm.KeepSamples(4)
	tm.Observe(1)
	if s := tm.Samples(); s != nil {
		t.Errorf("nil timer Samples = %v", s)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{9, 1, 7, 3, 5} // sorted: 1 3 5 7 9
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 5}, {0.8, 7}, {0.95, 9}, {1, 9},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.q); got != c.want {
			t.Errorf("Quantile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be mutated (sorted copy).
	if samples[0] != 9 {
		t.Error("Quantile sorted the caller's slice")
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(empty) = %g, want NaN", got)
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("Quantile(single, 0.99) = %g, want 42", got)
	}
}
