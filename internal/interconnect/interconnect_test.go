package interconnect

import (
	"math"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/spice"
)

func TestPaperLineSegments(t *testing.T) {
	l := PaperLine(1000)
	if l.Segments != 20 {
		t.Errorf("1000um: %d segments, want 20", l.Segments)
	}
	if l.RSeg != 8.5 || l.CSeg != 4.8e-15 {
		t.Errorf("per-segment values %g %g", l.RSeg, l.CSeg)
	}
	// Short lines keep the figure's minimum of 3 segments.
	if PaperLine(50).Segments != 3 {
		t.Errorf("50um: %d segments", PaperLine(50).Segments)
	}
	if PaperLine(500).Segments != 10 {
		t.Errorf("500um: %d segments", PaperLine(500).Segments)
	}
}

func TestElmoreUniformLadder(t *testing.T) {
	// Uniform N-segment ladder: Elmore = Σ_i (i·R)·C = R·C·N(N+1)/2.
	l := Line{Segments: 4, RSeg: 100, CSeg: 1e-12}
	lad := l.Ladder(0)
	// With π-segments the far node holds C/2; recompute expectation
	// directly from the ladder arrays instead.
	want := 0.0
	racc := 0.0
	for i := range lad.R {
		racc += lad.R[i]
		want += racc * lad.C[i]
	}
	if got := lad.ElmoreDelay(); math.Abs(got-want) > 1e-18 {
		t.Errorf("ElmoreDelay = %g, want %g", got, want)
	}
	// Load capacitance adds load·TotalR.
	ladL := l.Ladder(2e-12)
	extra := ladL.ElmoreDelay() - lad.ElmoreDelay()
	if math.Abs(extra-2e-12*400) > 1e-18 {
		t.Errorf("load contribution = %g", extra)
	}
}

func TestElmoreDelayAtMonotone(t *testing.T) {
	lad := Line{Segments: 6, RSeg: 50, CSeg: 2e-13}.Ladder(1e-13)
	prev := -1.0
	for k := 0; k < 6; k++ {
		d := lad.DelayAt(k)
		if d <= prev {
			t.Fatalf("DelayAt not increasing at %d: %g <= %g", k, d, prev)
		}
		prev = d
	}
	if math.Abs(lad.DelayAt(5)-lad.ElmoreDelay()) > 1e-18 {
		t.Error("DelayAt(last) != ElmoreDelay")
	}
}

func TestMomentsFirstIsElmore(t *testing.T) {
	lad := Line{Segments: 5, RSeg: 120, CSeg: 3e-13}.Ladder(5e-13)
	m := lad.Moments(2)
	if len(m) != 2 {
		t.Fatalf("moments: %v", m)
	}
	if math.Abs(-m[0]-lad.ElmoreDelay()) > 1e-15*lad.ElmoreDelay() {
		t.Errorf("m1 = %g, want -Elmore = %g", m[0], -lad.ElmoreDelay())
	}
	if m[1] <= 0 {
		t.Errorf("m2 = %g, want > 0 for an RC ladder", m[1])
	}
}

// TestElmoreVsTransient cross-validates the closed form against the
// simulator: the 50% step-response delay of an RC ladder is ≈ 0.7·Elmore
// (ln 2 scaling for a dominant-pole system).
func TestElmoreVsTransient(t *testing.T) {
	line := Line{Segments: 10, RSeg: 200, CSeg: 50e-15}
	lad := line.Ladder(0)
	elmore := lad.ElmoreDelay()

	ckt := circuit.New()
	in := ckt.Node("in")
	far := ckt.Node("far")
	ckt.AddVSource("v", in, circuit.Ground, circuit.PWL{T: []float64{0, 1e-15}, V: []float64{0, 1}})
	line.BuildBetween(ckt, "l", in, far)
	sim := spice.New(ckt, spice.Options{Stop: 10 * elmore, Step: elmore / 200})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform("far")
	if err != nil {
		t.Fatal(err)
	}
	t50, err := w.FirstCrossing(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := t50 / elmore
	if ratio < 0.4 || ratio > 1.0 {
		t.Errorf("t50/Elmore = %.3f, want ≈ 0.7 (dominant pole)", ratio)
	}
}

func TestBuildJunctions(t *testing.T) {
	ckt := circuit.New()
	from := ckt.Node("a")
	line := Line{Segments: 3, RSeg: 10, CSeg: 1e-15}
	far, junc := line.Build(ckt, "w", from)
	if len(junc) != 4 {
		t.Fatalf("junctions: %d", len(junc))
	}
	if junc[0] != from || junc[3] != far {
		t.Error("junction endpoints wrong")
	}
	// BuildBetween must terminate exactly on the given node.
	ckt2 := circuit.New()
	a, b := ckt2.Node("a"), ckt2.Node("b")
	j2 := line.BuildBetween(ckt2, "w", a, b)
	if j2[len(j2)-1] != b {
		t.Error("BuildBetween far end mismatch")
	}
}

func TestCouplePair(t *testing.T) {
	ckt := circuit.New()
	a, b := ckt.Node("a"), ckt.Node("b")
	line := Line{Segments: 2, RSeg: 10, CSeg: 1e-15}
	_, ja := line.Build(ckt, "la", a)
	_, jb := line.Build(ckt, "lb", b)
	before := len(ckt.Elements())
	if err := CouplePair(ckt, ja, jb, 100e-15); err != nil {
		t.Fatal(err)
	}
	added := len(ckt.Elements()) - before
	if added != 2 { // one per non-driver junction
		t.Errorf("added %d coupling caps, want 2", added)
	}
	if err := CouplePair(ckt, ja, jb[:1], 1e-15); err == nil {
		t.Error("mismatched junctions accepted")
	}
}
