// Crosstalk: the full transistor-level flow on the paper's Figure 1
// testbench. A victim line driven by a ×1 inverter is coupled to an
// opposing aggressor; we sweep the aggressor alignment, fit Γeff with each
// technique and score the predicted receiver output arrival against the
// transient reference — a miniature of the paper's Table 1.
package main

import (
	"context"
	"fmt"
	"log"

	"noisewave"
)

func main() {
	tech := noisewave.DefaultTech()
	cfg := noisewave.ConfigurationI(tech)
	cfg.Step = 2e-12 // coarser step: this is a demo, not the benchmark

	const victimStart = 0.3e-9
	ctx := context.Background()

	// Reference pair with the aggressor quiet: the sensitivity source.
	nlIn, nlOut, err := cfg.RunNoiselessCtx(ctx, victimStart)
	if err != nil {
		log.Fatal(err)
	}
	slew, err := nlIn.Slew(tech.Vdd, noisewave.Rising)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("noiseless victim far-end slew: %.0f ps\n", slew*1e12)

	// The receiver chain of Figure 1: ×4 gate under test into ×16 → ×64.
	gate := noisewave.NewInverterChainSim(tech,
		[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)

	fmt.Println("\noffset(ps)   technique  predicted(ps)  reference(ps)  error(ps)")
	for _, offset := range []float64{-200e-12, 0, 100e-12, 250e-12} {
		noisyIn, noisyOut, err := cfg.RunCtx(ctx, victimStart, []float64{victimStart + offset})
		if err != nil {
			log.Fatal(err)
		}
		in := noisewave.TechniqueInput{
			Noisy:        noisyIn,
			Noiseless:    nlIn,
			NoiselessOut: nlOut,
			Vdd:          tech.Vdd,
			Edge:         cfg.VictimEdge,
		}
		cmp, err := noisewave.CompareTechniquesWith(gate, in, noisyOut,
			noisewave.CompareTechniquesOpts{
				Techniques: []noisewave.Technique{noisewave.NewSGDP()},
			})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range cmp.Results {
			if r.Err != nil {
				fmt.Printf("%10.0f   %-9s  failed: %v\n", offset*1e12, r.Name, r.Err)
				continue
			}
			fmt.Printf("%10.0f   %-9s  %13.1f  %13.1f  %+9.2f\n",
				offset*1e12, r.Name,
				r.EstArrival*1e12, cmp.TrueArrival*1e12, r.ArrivalError*1e12)
		}
	}
}
