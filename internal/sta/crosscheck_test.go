package sta

import (
	"context"
	"fmt"
	"math"
	"testing"

	"noisewave/internal/charlib"
	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/netlist"
	"noisewave/internal/spice"
	"noisewave/internal/wave"
)

// TestSTAMatchesTransistorSimulation is the end-to-end cross-validation of
// the timing stack: a four-stage inverter chain is timed two ways — (a)
// with the NLDM library characterized by the transient simulator, through
// the STA engine; (b) directly as a transistor-level transient of the whole
// chain. The NLDM arrival must match the simulated arrival within the
// table-model error budget (a few ps per stage).
func TestSTAMatchesTransistorSimulation(t *testing.T) {
	tech := device.Default130()
	drives := []float64{1, 4, 16, 64}
	const inSlew = 150e-12

	// (a) NLDM + STA.
	cells := make([]device.Cell, len(drives))
	names := make([]string, len(drives))
	for i, d := range drives {
		cells[i] = device.Inverter(tech, d)
		names[i] = cells[i].Name
	}
	opts := charlib.FastOptions()
	opts.Slews = []float64{20e-12, 50e-12, 150e-12, 400e-12}
	opts.Loads = []float64{1e-15, 4e-15, 16e-15, 64e-15, 200e-15}
	lib, err := charlib.Characterize(tech, cells, opts)
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	d := netlist.GenerateChain("xcheck", len(drives), names)
	d.Inputs[0].Slew = inSlew
	timer := New(lib, d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("STA: %v", err)
	}
	// Input rises at t=0 → 4 inversions → y rises.
	staArrival := res.Nets["y"].timingFor(wave.Rising).Arrival

	// (b) Full transistor-level chain.
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	in := ckt.Node("in")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.SlewRamp(0.2e-9, inSlew, tech.Vdd, wave.Rising))
	prev := in
	var outName string
	for i, dr := range drives {
		out := ckt.Node(fmt.Sprintf("n%d", i))
		ckt.AddInverter(fmt.Sprintf("u%d", i), tech, dr, prev, out, vdd)
		outName = ckt.NodeName(out)
		prev = out
	}
	sim := spice.New(ckt, spice.Options{Step: 0.5e-12, Probes: []string{"in", outName}})
	sres, err := sim.Run(context.Background(), 0, 1.5e-9)
	if err != nil {
		t.Fatalf("transient: %v", err)
	}
	wIn, _ := sres.Waveform("in")
	wOut, _ := sres.Waveform(outName)
	tIn, err := wIn.LastCrossing(0.5 * tech.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	tOut, err := wOut.LastCrossing(0.5 * tech.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	simArrival := tOut - tIn // STA input arrival is 0 at the 50% point

	diff := staArrival - simArrival
	t.Logf("chain arrival: STA %.2f ps vs transient %.2f ps (diff %+.2f ps)",
		staArrival*1e12, simArrival*1e12, diff*1e12)
	// NLDM errors compound per stage; 4 stages within 15 ps total keeps the
	// two timing views mutually consistent.
	if math.Abs(diff) > 15e-12 {
		t.Errorf("NLDM STA and transistor simulation disagree by %.2f ps", diff*1e12)
	}
}
