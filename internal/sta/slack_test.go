package sta

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/netgen"
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
	s, ok := req.Slack("y", wave.Rising)
	if !ok {
		t.Fatal("no slack at y")
	}
	if math.Abs(s-(100e-12-22e-12)) > 1e-15 {
		t.Errorf("slack at y = %g, want 78 ps", s)
	}
	// Required at n1 fall = 100 − 10 (u2 rise delay from a falling input) = 90 ps.
	if nr := requiredAt(t, req, "n1"); math.Abs(nr[wave.Falling]-90e-12) > 1e-15 {
		t.Errorf("required n1 fall = %g, want 90 ps", nr[wave.Falling])
	}
	// Slack is constant along a single path: slack(a) == slack(y).
	sa, ok := req.Slack("a", wave.Rising)
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
	worst, ok := req.WorstSlack()
	if !ok {
		t.Fatal("no worst slack")
	}
	if worst.Net != "y2" {
		t.Errorf("worst net = %s, want y2", worst.Net)
	}
	if math.Abs(worst.Slack-(-5e-12)) > 1e-15 {
		t.Errorf("worst slack = %g, want −5 ps", worst.Slack)
	}
}

// TestWorstSlackNamesConstrainedEndpoint: on the 200-gate seed-1 Elmore
// mesh that `noisesta -gen-gates 200` times, the worst slack is a row of
// the slack report — the constrained net, not an upstream net of its
// critical path whose slack differs from the endpoint's by rounding — and
// the least slack among the rows, ties to the first.
func TestWorstSlackNamesConstrainedEndpoint(t *testing.T) {
	cfg := netgen.DefaultConfig(200)
	cfg.Seed = 1
	d, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := New(netgen.SyntheticLibrary(), d)
	tm.Wire = ElmoreWire
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, constraints := range []map[string]float64{
		{"l15_n2": 750e-12},
		{"l15_n3": 800e-12, "l15_n0": 800e-12, "l15_n2": 800e-12, "l15_n1": 800e-12},
		{"l15_n1": 700e-12, "l15_n2": 700e-12, "l3_n9": 1e-9},
	} {
		req, err := tm.ComputeRequired(res, constraints)
		if err != nil {
			t.Fatal(err)
		}
		rows := req.Report()
		want := rows[0]
		for _, r := range rows[1:] {
			if r.Slack < want.Slack {
				want = r
			}
		}
		got, ok := req.WorstSlack()
		if !ok || got != want {
			t.Errorf("constraints %v: WorstSlack = %+v, %v; want the report row %+v", constraints, got, ok, want)
		}
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
	if _, ok := req.Slack("y", wave.Rising); ok {
		t.Error("unconstrained output reported a slack")
	}
	if _, ok := req.WorstSlack(); ok {
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
	// Requirement through each branch; the minimum governs.
	if na := requiredAt(t, req, "a"); math.IsInf(na[wave.Rising], 1) || math.IsInf(na[wave.Falling], 1) {
		t.Errorf("input requirement not propagated: %+v", na)
	}
	sy, _ := req.Slack("y", wave.Rising)
	sa, _ := req.Slack("a", wave.Rising)
	saf, _ := req.Slack("a", wave.Falling)
	worstA := math.Min(sa, saf)
	if worstA > sy+1e-15 {
		t.Errorf("input slack %g cannot exceed endpoint slack %g", worstA, sy)
	}
}

// requiredAt returns a named net's required times.
func requiredAt(t *testing.T, req *RequiredTimes, net string) [2]float64 {
	t.Helper()
	id, ok := req.graph.lookup(net)
	if !ok {
		t.Fatalf("no net %s in the run", net)
	}
	return req.req[id]
}

// TestWorstSlackMatchesMapScan checks WorstSlack and Slack against the
// map walk's required times. On 10⁵-gate meshes (seeds 1 and 7, SGDP
// annotations on 1% of the nets as perfbench's sta-noisy places them,
// ideal and Elmore wires, 1 and 4 workers), WorstSlack must name the same
// worst constrained (net, edge) with the same slack bits as a scan of the
// map's slacks over the constrained names, and Slack must return the
// map's value for every constrained net and edge. The constraints put some outputs above and
// some below their arrivals, and add internal nets, a primary input and a
// name the design lacks. Runs are bit-identical at any worker count, so
// the map walk runs once per mesh and wire model.
func TestWorstSlackMatchesMapScan(t *testing.T) {
	if testing.Short() {
		t.Skip("times four 10⁵-gate noisy meshes")
	}
	for _, seed := range []int64{1, 7} {
		cfg := netgen.DefaultConfig(100000)
		cfg.Seed = seed
		d, err := netgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lib := netgen.SyntheticLibrary()
		sites := netgen.NoiseSites(cfg, d, lib.Vdd, 0.01)
		constraints := map[string]float64{"not-in-design": 1e-9, d.Inputs[0].Name: 1e-9}
		for i, o := range d.Outputs {
			constraints[o] = 15e-9 + float64(i%11)*0.1e-9
		}
		for i := 0; i < len(d.Gates); i += len(d.Gates) / 8 {
			constraints[d.Gates[i].Pins["Y"]] = 16e-9
		}
		for _, wire := range []WireModel{IdealWire, ElmoreWire} {
			tm := New(lib, d)
			tm.Wire = wire
			annotateSites(tm, sites)
			var ref map[string]*[2]float64
			for _, workers := range []int{1, 4} {
				res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					if ref, err = tm.computeRequiredReference(res, constraints); err != nil {
						t.Fatal(err)
					}
				}
				req, err := tm.ComputeRequired(res, constraints)
				if err != nil {
					t.Fatal(err)
				}
				net, edge, slack, ok := worstSlackReference(ref, res, constraints)
				got, gotOK := req.WorstSlack()
				if !ok || !gotOK || got.Net != net || got.Edge != edge || math.Float64bits(got.Slack) != math.Float64bits(slack) {
					t.Fatalf("seed %d, wire %d, %d workers: WorstSlack (%s, %v, %.17g, %v), map scan (%s, %v, %.17g, %v)",
						seed, wire, workers, got.Net, got.Edge, got.Slack, gotOK, net, edge, slack, ok)
				}
				for name := range constraints {
					for _, e := range edges {
						want, wantOK := slackReference(ref, res, name, e)
						s, sOK := req.Slack(name, e)
						if sOK != wantOK || math.Float64bits(s) != math.Float64bits(want) {
							t.Fatalf("seed %d, wire %d, %d workers: Slack(%s, %v) = %.17g, %v; map %.17g, %v",
								seed, wire, workers, name, e, s, sOK, want, wantOK)
						}
					}
				}
				t.Logf("seed %d, wire %d, %d workers: worst slack %.17g s at %s (%v)", seed, wire, workers, slack, net, edge)
			}
		}
	}
}
