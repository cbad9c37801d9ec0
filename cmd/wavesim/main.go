// Command wavesim transient-simulates the paper's Figure 1 crosstalk
// testbench and dumps the victim receiver input/output waveforms as CSV —
// useful for inspecting what the noise-injection cases actually look like.
//
// Usage:
//
//	wavesim -config I -offset 0.05ns [-noiseless] [-out waves.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"noisewave/internal/device"
	"noisewave/internal/netlist"
	"noisewave/internal/report"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

func main() {
	var (
		config    = flag.String("config", "I", "I or II")
		offsetStr = flag.String("offset", "0.05ns", "aggressor offset relative to the victim edge")
		noiseless = flag.Bool("noiseless", false, "keep all aggressors quiet")
		out       = flag.String("out", "", "CSV output path (default stdout)")
	)
	flag.Parse()

	tech := device.Default130()
	var cfg xtalk.Config
	switch strings.ToUpper(*config) {
	case "I":
		cfg = xtalk.ConfigurationI(tech)
	case "II":
		cfg = xtalk.ConfigurationII(tech)
	default:
		fmt.Fprintf(os.Stderr, "wavesim: unknown config %q\n", *config)
		os.Exit(1)
	}
	offset, err := netlist.ParseQuantity(*offsetStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavesim:", err)
		os.Exit(1)
	}

	const victimStart = 0.3e-9
	ctx := context.Background()
	var in, outW *wave.Waveform
	if *noiseless {
		in, outW, err = cfg.RunNoiselessCtx(ctx, victimStart)
	} else {
		starts := make([]float64, cfg.Aggressors)
		for k := range starts {
			starts[k] = victimStart + offset + float64(k)*40e-12
		}
		in, outW, err = cfg.RunCtx(ctx, victimStart, starts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavesim:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wavesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	err = report.WriteWaveCSV(w, []string{xtalk.NodeVictimFar, xtalk.NodeGateOut},
		func(name string, t float64) float64 {
			if name == xtalk.NodeVictimFar {
				return in.At(t)
			}
			return outW.At(t)
		}, in.T)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavesim:", err)
		os.Exit(1)
	}
	half := 0.5 * tech.Vdd
	tIn, err1 := in.LastCrossing(half)
	tOut, err2 := outW.LastCrossing(half)
	if err1 == nil && err2 == nil {
		fmt.Fprintf(os.Stderr, "wavesim: config %s gate delay = %s ps (arrival in=%s out=%s ns)\n",
			cfg.Name, report.Ps(tOut-tIn), report.Ns(tIn), report.Ns(tOut))
	}
}
