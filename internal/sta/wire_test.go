package sta

import (
	"context"
	"math"
	"testing"
)

func TestWireDelayFormula(t *testing.T) {
	// R = 200 Ω, Cw = 100 fF, Cp = 10 fF: Elmore = 200·(50f+10f) = 12 ps,
	// 50% delay = ln2·Elmore ≈ 8.3 ps.
	d, tr := wireDelay(200, 100e-15, 10e-15, 50e-12)
	want := math.Ln2 * 200 * (50e-15 + 10e-15)
	if math.Abs(d-want) > 1e-15 {
		t.Errorf("delay = %g, want %g", d, want)
	}
	if tr <= 50e-12 {
		t.Errorf("transition must degrade, got %g", tr)
	}
	// Quadrature composition: tr² = slew² + (2.2·R·Ceff)².
	rc := 2.2 * 200 * (50e-15 + 10e-15)
	wantTr := math.Sqrt(50e-12*50e-12 + rc*rc)
	if math.Abs(tr-wantTr) > 1e-15 {
		t.Errorf("transition = %g, want %g", tr, wantTr)
	}
	// Zero wire: identity.
	d0, tr0 := wireDelay(0, 0, 10e-15, 50e-12)
	if d0 != 0 || tr0 != 50e-12 {
		t.Errorf("ideal wire changed timing: %g %g", d0, tr0)
	}
}

func TestElmoreWireSlowsArrival(t *testing.T) {
	src := `
design w
input a at=0ps slew=50ps
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
netcap n1 150fF
netres n1 400
`
	d := mustParse(t, src)
	lib := testLib()

	ideal := New(lib, d)
	rIdeal, err := ideal.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	elmore := New(lib, d)
	elmore.Wire = ElmoreWire
	rElmore, err := elmore.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ai := rIdeal.Nets["y"].Rise.Arrival
	ae := rElmore.Nets["y"].Rise.Arrival
	if ae <= ai {
		t.Fatalf("Elmore wire must slow the path: %g vs %g", ae, ai)
	}
	// The added delay must be at least the 50% Elmore of the wire alone.
	minExtra := math.Ln2 * 400 * (75e-15)
	if ae-ai < minExtra {
		t.Errorf("wire added %.2f ps, expected at least %.2f ps",
			(ae-ai)*1e12, minExtra*1e12)
	}
	t.Logf("ideal %.1f ps, elmore %.1f ps (+%.1f ps)", ai*1e12, ae*1e12, (ae-ai)*1e12)
}

func TestNetResParsing(t *testing.T) {
	d := mustParse(t, `
design r
input a
output y
gate u1 INV A=a Y=y
netres y 120
netres y 30
`)
	if got := d.NetRes["y"]; math.Abs(got-150) > 1e-12 {
		t.Errorf("netres accumulation = %g", got)
	}
}
