package experiments

import (
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// TestAblationConfigurationI isolates the contribution of each SGDP
// ingredient on the single-aggressor sweep. The full pipeline must be at
// least as accurate as each ablated variant (within a small tolerance for
// sweep noise at reduced case counts).
func TestAblationConfigurationI(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	stats, err := RunAblation(cfg, sweepCases(t, 20), SweepOptions{})
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	byName := map[string]TechniqueStats{}
	for _, s := range stats {
		t.Logf("%-18s max=%7.2f ps avg=%6.2f ps fail=%d",
			s.Name, s.MaxAbs*1e12, s.AvgAbs*1e12, s.Failures)
		byName[s.Name] = s
	}
	full := byName["SGDP-full"]
	if full.N == 0 {
		t.Fatal("no scored cases")
	}
	for _, name := range []string{"SGDP-no-remap", "WLS5"} {
		if full.AvgAbs > byName[name].AvgAbs*1.3 {
			t.Errorf("full SGDP (%.2f ps) much worse than %s (%.2f ps)",
				full.AvgAbs*1e12, name, byName[name].AvgAbs*1e12)
		}
	}
}

// TestAblationSafeguardMatters shows the slope-collapse fallback earns its
// keep on the two-aggressor configuration: without it, the worst case
// degrades dramatically.
func TestAblationSafeguardMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("two-configuration ablation is slow")
	}
	cfg := xtalk.ConfigurationII(device.Default130())
	cfg.Step = 2e-12
	stats, err := RunAblation(cfg, sweepCases(t, 20), SweepOptions{})
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	byName := map[string]TechniqueStats{}
	for _, s := range stats {
		t.Logf("%-18s max=%7.2f ps avg=%6.2f ps fail=%d",
			s.Name, s.MaxAbs*1e12, s.AvgAbs*1e12, s.Failures)
		byName[s.Name] = s
	}
	full := byName["SGDP-full"]
	raw := byName["SGDP-no-safeguard"]
	if full.MaxAbs >= raw.MaxAbs {
		t.Errorf("safeguard should reduce the worst case: full %.1f ps vs raw %.1f ps",
			full.MaxAbs*1e12, raw.MaxAbs*1e12)
	}
}

// TestAblationReplayReuse pins how many replays the ablation shares on a
// reduced sweep (8 cases, 2 ps step). A variant takes an earlier variant's
// replay in its case only when their Γeff are bit-identical; on these
// cases that happens 8 times of 40 on Cfg I and 11 of 40 on Cfg II.
func TestAblationReplayReuse(t *testing.T) {
	tech := device.Default130()
	for _, c := range []struct {
		cfg          xtalk.Config
		hits, misses int64
	}{
		{xtalk.ConfigurationI(tech), 8, 32},
		{xtalk.ConfigurationII(tech), 11, 29},
	} {
		cfg := c.cfg
		cfg.Step = 2e-12
		reg := telemetry.New()
		if _, err := RunAblation(cfg, 8, SweepOptions{Telemetry: reg}); err != nil {
			t.Fatalf("config %s: RunAblation: %v", cfg.Name, err)
		}
		snap := reg.Snapshot()
		if hits, misses := snap.Counters["core.replay_hits"], snap.Counters["core.replay_misses"]; hits != c.hits || misses != c.misses {
			t.Errorf("config %s: %d replay hits, %d misses; want %d, %d",
				cfg.Name, hits, misses, c.hits, c.misses)
		}
	}
}
