package sta

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/wave"
)

func TestSlackSimpleChain(t *testing.T) {
	d := mustParse(t, `
design chain
input a at=0ps slew=50ps
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
`)
	timer := New(testLib(), d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, map[string]float64{"y": 100e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Forward: y rise arrives at 22 ps (12 fall + 10 rise).
	s, ok := req.Slack(res, "y", wave.Rising)
	if !ok {
		t.Fatal("no slack at y")
	}
	if math.Abs(s-(100e-12-22e-12)) > 1e-15 {
		t.Errorf("slack at y = %g, want 78 ps", s)
	}
	// Required at n1 fall = 100 − 10 (u2 rise delay from a falling input) = 90 ps.
	nr := req.Required["n1"]
	if nr == nil {
		t.Fatal("no required time at n1")
	}
	if math.Abs(nr.Fall-90e-12) > 1e-15 {
		t.Errorf("required n1 fall = %g, want 90 ps", nr.Fall)
	}
	// Slack is constant along a single path: slack(a) == slack(y).
	sa, ok := req.Slack(res, "a", wave.Rising)
	if !ok {
		t.Fatal("no slack at a")
	}
	if math.Abs(sa-s) > 1e-15 {
		t.Errorf("path slack not constant: %g vs %g", sa, s)
	}
}

func TestWorstSlackAndViolation(t *testing.T) {
	d := mustParse(t, `
design two
input a at=0ps
output y1
output y2
gate u1 INV A=a Y=y1
gate u2 BUF A=a Y=y2
`)
	timer := New(testLib(), d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, map[string]float64{
		"y1": 50e-12,
		"y2": 15e-12, // BUF takes 20 ps → violation of −5 ps
	})
	if err != nil {
		t.Fatal(err)
	}
	net, _, slack, ok := req.WorstSlack(res)
	if !ok {
		t.Fatal("no worst slack")
	}
	if net != "y2" {
		t.Errorf("worst net = %s, want y2", net)
	}
	if math.Abs(slack-(-5e-12)) > 1e-15 {
		t.Errorf("worst slack = %g, want −5 ps", slack)
	}
}

func TestUnconstrainedOutputsHaveNoSlack(t *testing.T) {
	d := mustParse(t, `
design u
input a
output y
gate u1 INV A=a Y=y
`)
	timer := New(testLib(), d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := req.Slack(res, "y", wave.Rising); ok {
		t.Error("unconstrained output reported a slack")
	}
	if _, _, _, ok := req.WorstSlack(res); ok {
		t.Error("WorstSlack found something with no constraints")
	}
}

func TestReconvergentSlack(t *testing.T) {
	// a → u1 → n1 → u3(A); a → u2 → n2 → u3(B): the later branch sets the
	// tighter requirement on a.
	d := mustParse(t, `
design reconv
input a at=0ps
output y
gate u1 INV A=a Y=n1
gate u2 BUF A=a Y=n2
gate u3 NAND A=n1 B=n2 Y=y
`)
	timer := New(testLib(), d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, map[string]float64{"y": 60e-12})
	if err != nil {
		t.Fatal(err)
	}
	na := req.Required["a"]
	if na == nil {
		t.Fatal("no requirement on a")
	}
	// Requirement through each branch; the minimum governs.
	if math.IsInf(na.Rise, 1) || math.IsInf(na.Fall, 1) {
		t.Errorf("input requirement not propagated: %+v", na)
	}
	sy, _ := req.Slack(res, "y", wave.Rising)
	sa, _ := req.Slack(res, "a", wave.Rising)
	saf, _ := req.Slack(res, "a", wave.Falling)
	worstA := math.Min(sa, saf)
	if worstA > sy+1e-15 {
		t.Errorf("input slack %g cannot exceed endpoint slack %g", worstA, sy)
	}
}
