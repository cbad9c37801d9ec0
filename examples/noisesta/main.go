// Noise-aware STA: run the gate-level static timer on a small design whose
// internal net is a crosstalk victim. The victim's noisy waveform comes
// from the transistor-level testbench; the timer converts it to Γeff with
// a configurable technique before NLDM lookup — showing how the choice of
// equivalent-waveform technique changes the reported arrival times.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"noisewave"
)

const design = `
design  victim_path
input   a slew=150ps at=0ps
output  y
gate    u1 INVX1  A=a  Y=n1
gate    u2 INVX4  A=n1 Y=n2
gate    u3 INVX16 A=n2 Y=y
netcap  n1 96fF
couple  n1 agg 100fF
`

func main() {
	tech := noisewave.DefaultTech()

	d, err := noisewave.ParseNetlist(strings.NewReader(design))
	if err != nil {
		log.Fatal(err)
	}
	lib, err := noisewave.Characterize(tech, noisewave.FastCharacterization())
	if err != nil {
		log.Fatal(err)
	}

	// Synthesize the victim waveforms with the Figure 1 testbench: n1 is
	// the far end of a coupled 1000 µm line (the netlist's netcap/couple
	// annotations mirror this).
	cfg := noisewave.ConfigurationI(tech)
	cfg.Step = 2e-12
	const victimStart = 0.3e-9
	ctx := context.Background()
	nlIn, nlOut, err := cfg.RunNoiselessCtx(ctx, victimStart)
	if err != nil {
		log.Fatal(err)
	}
	noisyIn, _, err := cfg.RunCtx(ctx, victimStart, []float64{victimStart + 0.1e-9})
	if err != nil {
		log.Fatal(err)
	}
	annotation := &noisewave.NoiseAnnotation{
		Noisy:        noisyIn,
		Noiseless:    nlIn,
		NoiselessOut: nlOut,
		Edge:         noisewave.Rising,
	}

	fmt.Println("technique  y rise AT(ps)  y fall AT(ps)")
	for _, name := range []string{"P1", "P2", "LSF3", "E4", "WLS5", "SGDP"} {
		tq, err := noisewave.TechniqueByName(name)
		if err != nil {
			log.Fatal(err)
		}
		timer := noisewave.NewTimer(lib, d)
		timer.Technique = tq
		timer.Annotate("n1", annotation)
		res, err := timer.RunCtx(ctx, noisewave.RunOptions{})
		if err != nil {
			fmt.Printf("%-9s  failed: %v\n", name, err)
			continue
		}
		n := res.Nets["y"]
		fmt.Printf("%-9s  %13.1f  %13.1f\n", name,
			n.Rise.Arrival*1e12, n.Fall.Arrival*1e12)
	}

	// Critical path with the SGDP-annotated timing, through the
	// context-first entry point (cancelable, parallel for large designs).
	timer := noisewave.NewTimer(lib, d)
	timer.Annotate("n1", annotation)
	res, err := timer.RunCtx(ctx, noisewave.RunOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	net, edge, at, err := res.WorstOutput(d.Outputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst output %s (%v) at %.1f ps; critical path:\n", net, edge, at.Arrival*1e12)
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range path {
		via := s.ViaGate
		if via == "" {
			via = "(input)"
		}
		fmt.Printf("  %-4s %-4s AT=%8.1f ps  trans=%7.1f ps  via %s\n",
			s.Net, s.Edge, s.Arrival*1e12, s.Trans*1e12, via)
	}
}
