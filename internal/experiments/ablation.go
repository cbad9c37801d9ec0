package experiments

import (
	"noisewave/internal/eqwave"
	"noisewave/internal/xtalk"
)

// AblationVariant names one SGDP configuration under study.
type AblationVariant struct {
	Name string
	Tech eqwave.Technique
}

// AblationVariants returns the SGDP feature ablations called out in
// DESIGN.md: each removes one ingredient of §3 so its contribution to
// Table 1 accuracy can be isolated, with WLS5 as the baseline the paper
// compares against.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{"SGDP-full", eqwave.NewSGDP()},
		{"SGDP-first-order", &eqwave.SGDP{ // Eq. 3 without the Taylor term
			VoltageRemap: true, DeltaShift: true,
		}},
		{"SGDP-no-remap", &eqwave.SGDP{ // WLS5 weights, Eq. 3 objective
			SecondOrder: true, DeltaShift: true,
		}},
		{"SGDP-no-safeguard", &eqwave.SGDP{ // literal fit, no collapse fallback
			VoltageRemap: true, SecondOrder: true, DeltaShift: true,
			NoSafeguard: true,
		}},
		{"WLS5", eqwave.WLS5{}},
	}
}

// RunAblation sweeps the ablation variants over a Table 1-style alignment
// sweep and returns one stats row per variant. so controls the sweep
// exactly as Table1Options' block does (the SGDP variants hold
// configuration only, so sharing them across workers is safe). Its
// consumer is go test: the ablation tests regenerate EXPERIMENTS.md's
// ablation table through it and pin its replay reuse.
func RunAblation(cfg xtalk.Config, cases int, so SweepOptions) ([]TechniqueStats, error) {
	variants := AblationVariants()
	techs := make([]eqwave.Technique, 0, len(variants))
	for _, v := range variants {
		techs = append(techs, namedTechnique{v.Name, v.Tech})
	}
	res, err := RunTable1(cfg, Table1Options{
		Cases: cases, Range: 1e-9, P: eqwave.DefaultP, Techniques: techs,
		SweepOptions: so,
	})
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}

// namedTechnique relabels a technique so several SGDP variants can share
// one sweep.
type namedTechnique struct {
	name string
	eqwave.Technique
}

// Name implements eqwave.Technique.
func (n namedTechnique) Name() string { return n.name }
