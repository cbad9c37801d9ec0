package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"noisewave/internal/device"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// TestMain runs the command itself when REPRO_RUN_MAIN is set, so a test
// can drive the real flag parsing and exit codes in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRepro runs the command with args in a child process and returns its
// stdout, stderr and exit code.
func runRepro(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("repro %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestSweepFlagsRejectedWithoutSweep: figure2 and runtime run no sweep, so
// each sweep flag set there exits 2 before any work, naming the flag;
// -experiment all shares the flags with its sweeps and accepts them.
func TestSweepFlagsRejectedWithoutSweep(t *testing.T) {
	for _, exp := range []string{"figure2", "runtime"} {
		for _, flag := range [][]string{
			{"-chaos", "7"}, {"-keep-going"}, {"-case-timeout", "1s"}, {"-workers", "1"},
		} {
			args := append([]string{"-experiment", exp}, flag...)
			stdout, stderr, code := runRepro(t, args...)
			if code != 2 || !strings.Contains(stderr, flag[0]+" ") || stdout != "" {
				t.Errorf("repro %v: exit %d, stderr %q, stdout %q; want exit 2 naming %s and no output",
					args, code, stderr, stdout, flag[0])
			}
		}
	}

	// A run canceled at once still exits 0, so this checks only that the
	// flags pass the check.
	args := []string{"-experiment", "all", "-q", "-timeout", "1ns",
		"-chaos", "7", "-keep-going", "-case-timeout", "1s", "-workers", "1"}
	if _, stderr, code := runRepro(t, args...); code != 0 || !strings.Contains(stderr, "run canceled") {
		t.Errorf("repro %v: exit %d, stderr %q; want a canceled run that exits 0", args, code, stderr)
	}
}

// TestArtifactsWriteOnlyWhatRan: figure2 and runtime run no sweep, so
// -artifacts writes their metrics and a config.json of only the settings
// they read, and no trace, journal or failure report. -experiment all
// keeps every sweep artifact, even when canceled at once.
func TestArtifactsWriteOnlyWhatRan(t *testing.T) {
	for _, c := range []struct {
		args      []string
		files     []string
		configKey []string
	}{
		{[]string{"-experiment", "figure2"},
			[]string{"config.json", "metrics.json"},
			[]string{"config", "experiment", "p"}},
		{[]string{"-experiment", "runtime"},
			[]string{"config.json", "metrics.json"},
			[]string{"config", "experiment", "p"}},
		{[]string{"-experiment", "all", "-q", "-timeout", "1ns"},
			[]string{"config.json", "failures.json", "journal.jsonl", "metrics.json", "trace.json"},
			[]string{"case_timeout", "cases", "chaos", "config", "experiment", "keep_going", "p", "workers"}},
	} {
		dir := t.TempDir()
		args := append(c.args, "-artifacts", dir)
		if _, stderr, code := runRepro(t, args...); code != 0 {
			t.Fatalf("repro %v: exit %d, stderr %q", args, code, stderr)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		if !slices.Equal(files, c.files) {
			t.Errorf("repro %v wrote %v, want %v", args, files, c.files)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "config.json"))
		if err != nil {
			t.Fatal(err)
		}
		var cfg map[string]any
		if err := json.Unmarshal(raw, &cfg); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range cfg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, c.configKey) {
			t.Errorf("repro %v: config.json records %v, want %v", args, keys, c.configKey)
		}
	}
}

// TestFailuresRecordCaseCount: failures.json names every sweep that ran
// with its case count, clean or not.
func TestFailuresRecordCaseCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4-case table1 sweep and a 2-case pushout sweep")
	}
	for _, c := range []struct {
		experiment, cases, label string
		total                    int
	}{
		{"table1", "4", "table1 config I", 4},
		{"pushout", "2", "pushout config I", 2},
	} {
		dir := t.TempDir()
		args := []string{"-experiment", c.experiment, "-cases", c.cases, "-config", "I",
			"-q", "-workers", "1", "-artifacts", dir}
		if _, stderr, code := runRepro(t, args...); code != 0 {
			t.Fatalf("repro %v: exit %d, stderr %q", args, code, stderr)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "failures.json"))
		if err != nil {
			t.Fatal(err)
		}
		var reps map[string]struct {
			Total    int               `json:"total"`
			Failures []json.RawMessage `json:"failures"`
		}
		if err := json.Unmarshal(raw, &reps); err != nil {
			t.Fatal(err)
		}
		rep, ok := reps[c.label]
		if len(reps) != 1 || !ok || rep.Total != c.total || rep.Failures == nil || len(rep.Failures) != 0 {
			t.Errorf("repro %v: failures.json = %s, want one clean %q entry with total %d",
				args, raw, c.label, c.total)
		}
	}
}

// TestPSweepPrintsFinishedRowsOnCancel: a P sweep canceled in its second
// P value prints the first P's row under table1's partial banner and
// returns the cancellation, as table1 does with its partial statistics.
func TestPSweepPrintsFinishedRowsOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the P=9 accuracy sweep")
	}
	const cases = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := telemetry.New()
	// Cancel once the second P value (P=17) has finished a case: the first
	// P's sweep and fits are complete by then.
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for reg.Counter("sweep.cases_completed").Value() <= cases {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		cancel()
	}()

	var out bytes.Buffer
	e := env{stdout: &out, ctx: ctx, reg: reg, workers: 1}
	err := runPSweep(e, xtalk.ConfigurationI(device.Default130()), cases)
	cancel()
	<-watched
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("runPSweep error %v does not match telemetry.ErrCanceled", err)
	}
	got := out.String()
	_, table, ok := strings.Cut(got, partialBanner+"\n")
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if !ok || len(lines) < 3 {
		t.Fatalf("canceled P sweep printed no rows under %q:\n%s", partialBanner, got)
	}
	rows := lines[2:] // after the header and its rule
	if strings.Fields(rows[0])[0] != "9" || len(rows) == 5 {
		t.Fatalf("canceled P sweep printed %d rows, want the P=9 row first and not all five:\n%s", len(rows), got)
	}
}
