package sta

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/charlib"
	"noisewave/internal/device"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/wave"
)

// recvDesign fans its annotated nets out so that each pins one part of the
// rule choosing the receiving gate for library reconstruction: lowest
// level, then lowest gate index, then that gate's first pin on the net.
//
//   - n1 feeds h1 (gate 0, level 2) and r1 (gate 4, level 1): r1 receives.
//   - n2 feeds s1 (INVX4) and s2 (INVX1), both at level 1: s1 receives.
//   - n3 feeds both pins of t1: t1's pin A receives.
//   - p is a primary input: it converts before level 0.
const recvDesign = `
design recv
input a slew=150ps
input b slew=150ps
input p at=200ps slew=150ps
output o1
output o2
output o3
output o4
output o5
output o6
gate h1 NAND2X1 A=n1 B=c2 Y=o1
gate u0 INVX1 A=a Y=n1
gate d1 INVX1 A=b Y=c1
gate d2 INVX1 A=c1 Y=c2
gate r1 INVX4 A=n1 Y=o2
gate u1 INVX1 A=a Y=n2
gate s1 INVX4 A=n2 Y=o3
gate s2 INVX1 A=n2 Y=o4
gate u2 INVX1 A=a Y=n3
gate t1 NAND2X1 A=n3 B=n3 Y=o5
gate q1 INVX1 A=p Y=o6
`

// glitchedFall is a full-swing falling edge like pt's with a crosstalk
// bump partway down, so the receiver's sensitivity window shapes the
// equivalent ramp.
func glitchedFall(pt PinTiming, vdd float64) *wave.Waveform {
	center := pt.Arrival + 0.2*pt.Trans
	return wave.FromFunc(func(tt float64) float64 {
		u := (tt - (pt.Arrival - pt.Trans/1.6)) / (pt.Trans / 0.8)
		edge := vdd * (1 - math.Max(0, math.Min(1, u)))
		bump := 0.3 * vdd * math.Exp(-math.Pow((tt-center)/40e-12, 2))
		return math.Min(1.1*vdd, edge+bump)
	}, 0, pt.Arrival+2*pt.Trans+0.5e-9, 1500)
}

func gateIndex(t *testing.T, d *netlist.Design, name string) int {
	t.Helper()
	for i := range d.Gates {
		if d.Gates[i].Name == name {
			return i
		}
	}
	t.Fatalf("no gate %s", name)
	return -1
}

// TestNoiseReceiverRule: annotations carry only the noisy waveform, so the
// receiving gate's cell, output load and arc shape the conversion. Each
// converted arrival must equal convertNoise run with the receiver the rule
// names, and the bound sites must name that gate and pin.
func TestNoiseReceiverRule(t *testing.T) {
	tech := device.Default130()
	opts := charlib.FastOptions()
	opts.WithWaves = true
	lib, err := charlib.Characterize(tech, []device.Cell{
		device.Inverter(tech, 1), device.Inverter(tech, 4), device.NAND2(tech, 1),
	}, opts)
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	d := mustParse(t, recvDesign)
	clean, err := New(lib, d).RunCtx(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	loads, _, err := New(lib, d).netLoads()
	if err != nil {
		t.Fatal(err)
	}
	annotation := func() *NoiseAnnotation {
		return &NoiseAnnotation{Noisy: glitchedFall(clean.Nets["n1"].Fall, lib.Vdd), Edge: wave.Falling}
	}

	tm := New(lib, d)
	for _, net := range []string{"n1", "n2", "n3", "p"} {
		tm.Annotate(net, &NoiseAnnotation{Noisy: glitchedFall(clean.Nets[net].Fall, lib.Vdd), Edge: wave.Falling})
	}
	tm.Annotate("ghost", annotation()) // not in the design: ignored
	reg := telemetry.New()
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1, Telemetry: reg})
	if err != nil {
		t.Fatalf("noisy run: %v", err)
	}
	if got := reg.Counter("sta.noise_conversions").Value(); got != 4 {
		t.Fatalf("%d conversions, want 4", got)
	}

	// convert runs the technique on net's clean timing with gate's pin as
	// the receiving context.
	convert := func(net, gate, pin string) (arr, tt float64) {
		t.Helper()
		g := d.Gates[gateIndex(t, d, gate)]
		cell, err := lib.Cell(g.Cell)
		if err != nil {
			t.Fatal(err)
		}
		arc, _ := cell.ArcTo(pin)
		base := *clean.Nets[net]
		arr, tt, err = tm.convert(net, tm.Noise[net], &base, cell, arc, loads[g.Pins["Y"]])
		if err != nil {
			t.Fatalf("convert(%s via %s.%s): %v", net, gate, pin, err)
		}
		return arr, tt
	}
	for _, tc := range []struct {
		net, recv, pin string
		other          string // a consumer the rule must not pick, "" if none differs
	}{
		{"n1", "r1", "A", "h1"},
		{"n2", "s1", "A", "s2"},
		{"n3", "t1", "A", ""},
		{"p", "q1", "A", ""},
	} {
		arr, tt := convert(tc.net, tc.recv, tc.pin)
		if got := res.Nets[tc.net].Fall; got.Arrival != arr || got.Trans != tt {
			t.Errorf("%s: converted (%g, %g), want (%g, %g) from receiver %s",
				tc.net, got.Arrival, got.Trans, arr, tt, tc.recv)
		}
		if tc.other != "" {
			if oarr, _ := convert(tc.net, tc.other, "A"); oarr == arr {
				t.Fatalf("%s: receivers %s and %s convert alike, so the design does not pin the rule",
					tc.net, tc.recv, tc.other)
			}
		}
	}

	// The primary input converts before level 0: its level-0 consumer
	// already sees the converted edge.
	parr, ptt := convert("p", "q1", "A")
	q1Cell, _ := lib.Cell("INVX1")
	q1Arc, _ := q1Cell.ArcTo("A")
	delay, _, _, err := q1Arc.Delay(wave.Falling, ptt, loads["o6"])
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Nets["o6"].Rise.Arrival; got != parr+delay {
		t.Errorf("o6 rise %g, want %g from the converted input", got, parr+delay)
	}

	// The bound sites name the receiving gate and its first pin on the net.
	g, err := compile(tm.Design, tm.Lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{graph: g}
	if n := e.bindNoise(tm.snapshotNoise()); n != 4 {
		t.Fatalf("bound %d sites, want 4", n)
	}
	bound := map[string]noiseSite{}
	for b, list := range e.sites {
		for _, s := range list {
			if g.netName[s.net] == "p" && b != 0 {
				t.Errorf("primary input p converts after level %d, want before level 0", b-1)
			}
			bound[g.netName[s.net]] = s
		}
	}
	for net, recv := range map[string]string{"n1": "r1", "n2": "s1", "n3": "t1", "p": "q1"} {
		gi := int32(gateIndex(t, d, recv))
		if s := bound[net]; s.recvGate != gi || s.recvArc != g.inStart[gi] {
			t.Errorf("%s bound to gate %d arc %d, want %s (gate %d) arc %d",
				net, s.recvGate, s.recvArc, recv, gi, g.inStart[gi])
		}
	}

	// Annotations that never bind convert nothing and leave timing alone.
	for _, net := range []string{"ghost", "o1"} {
		tm := New(lib, d)
		tm.Annotate(net, annotation())
		reg := telemetry.New()
		res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1, Telemetry: reg})
		if err != nil {
			t.Fatalf("%s annotated: %v", net, err)
		}
		if got := reg.Counter("sta.noise_conversions").Value(); got != 0 {
			t.Errorf("%s annotated: %d conversions, want 0", net, got)
		}
		requireSameTiming(t, clean, res)
	}
}

// A traced noisy run reports its bound noise sites on the sta.build span,
// which covers the binding; the count equals the conversions the run made.
func TestTracedBuildCountsNoiseSites(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	cfg.Seed = 9
	tm := meshTimer(t, cfg, ElmoreWire)
	for _, s := range netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.05) {
		tm.Annotate(s.Net, &NoiseAnnotation{
			Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
		})
	}
	tr := trace.New()
	reg := telemetry.New()
	if _, err := tm.RunCtx(context.Background(), RunOptions{Workers: 2, Telemetry: reg, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	conv := reg.Counter("sta.noise_conversions").Value()
	if conv == 0 {
		t.Fatal("no noise conversions")
	}
	var builds int
	for _, s := range tr.Spans() {
		if s.Name != "sta.build" {
			continue
		}
		builds++
		var sites any
		for _, a := range s.Attrs {
			if a.Key == "noise_sites" {
				sites = a.Value
			}
		}
		if sites != conv {
			t.Errorf("sta.build noise_sites = %v, want %d (the conversion count)", sites, conv)
		}
	}
	if builds != 1 {
		t.Fatalf("%d sta.build spans, want 1", builds)
	}
}
