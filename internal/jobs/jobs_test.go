package jobs

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"noisewave/internal/eqwave"
	"noisewave/internal/experiments"
	"noisewave/internal/liberty"
	"noisewave/internal/telemetry"
)

// flatTable returns a constant NLDM table.
func flatTable(d float64) *liberty.Table2D {
	return &liberty.Table2D{
		Index1: []float64{10e-12, 500e-12},
		Index2: []float64{1e-15, 100e-15},
		Values: [][]float64{{d, d}, {d, d}},
	}
}

// testLibertyText serializes a tiny synthetic library (INV 10/12 ps, BUF
// 20 ps) to Liberty text, the form an HTTP job carries it in.
func testLibertyText(t *testing.T) string {
	t.Helper()
	lib := liberty.NewLibrary("jobslib", 1.2)
	for _, c := range []*liberty.Cell{
		{
			Name: "INV",
			Pins: []liberty.Pin{
				{Name: "A", Direction: "input", Cap: 2e-15},
				{Name: "Y", Direction: "output"},
			},
			Arcs: []liberty.Arc{{
				From: "A", To: "Y", Sense: liberty.NegativeUnate,
				CellRise: flatTable(10e-12), CellFall: flatTable(12e-12),
				RiseTransition: flatTable(30e-12), FallTransition: flatTable(28e-12),
			}},
		},
		{
			Name: "BUF",
			Pins: []liberty.Pin{
				{Name: "A", Direction: "input", Cap: 3e-15},
				{Name: "Y", Direction: "output"},
			},
			Arcs: []liberty.Arc{{
				From: "A", To: "Y", Sense: liberty.PositiveUnate,
				CellRise: flatTable(20e-12), CellFall: flatTable(20e-12),
				RiseTransition: flatTable(30e-12), FallTransition: flatTable(30e-12),
			}},
		},
	} {
		lib.AddCell(c)
	}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatalf("write liberty: %v", err)
	}
	return buf.String()
}

// testNetlistText is a three-gate chain with parasitics on the inner nets;
// slew parameterized so distinct jobs hash differently.
func testNetlistText(slewPs int) string {
	return fmt.Sprintf(`design jobs_chain
input a slew=%dps at=0ps
output y
gate u1 INV A=a Y=n1
gate u2 BUF A=n1 Y=n2
gate u3 INV A=n2 Y=y
netcap n1 5fF
netres n1 200
netcap n2 3fF
netres n2 150
`, slewPs)
}

func staConfig(slewPs int) Config {
	return Config{
		Experiment: ExpSTA,
		Netlist:    testNetlistText(slewPs),
		Liberty:    "", // filled by caller (needs *testing.T)
		Wire:       "elmore",
		Require:    map[string]string{"y": "500ps"},
	}
}

// directSTA computes the reference payload the job service must match
// bit-for-bit, through the same public sta API a standalone tool uses.
func directSTA(t *testing.T, cfg Config) *STAPayload {
	t.Helper()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	res, err := runSTA(context.Background(), norm, nil, nil)
	if err != nil {
		t.Fatalf("direct sta run: %v", err)
	}
	return res.STA
}

// newStoppedManager builds a manager with no runner goroutines: submitted
// jobs stay queued forever, making quota/backlog/priority tests
// deterministic.
func newStoppedManager(opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		opts: opts, reg: opts.Telemetry,
		ctx: ctx, stop: stop,
		byID:       make(map[string]*Job),
		byHash:     make(map[string]*Job),
		tenantLoad: make(map[string]int),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	select {
	case <-j.Done():
	case <-ctx.Done():
		t.Fatalf("job %s did not finish: state %s", j.ID, j.State())
	}
}

// TestSTAJobMatchesDirectRun: a job's STA payload must be bit-identical to
// the same configuration run directly against the sta package.
func TestSTAJobMatchesDirectRun(t *testing.T) {
	lib := testLibertyText(t)
	cfg := staConfig(100)
	cfg.Liberty = lib

	m := NewManager(Options{Telemetry: telemetry.New()})
	defer m.Close()
	j, err := m.Submit(cfg, "t1", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if err := j.Err(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	got := j.Result().STA
	want := directSTA(t, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("service STA payload differs from direct run:\n got %+v\nwant %+v", got, want)
	}
	if got.WorstSlack == nil {
		t.Fatal("no worst slack in payload")
	}
	// Slack must be constant (±1 fs) along the elmore critical path: the
	// service result inherits the timer's slack-consistency guarantee.
	for i := 1; i < len(got.Slacks); i++ {
		if d := got.Slacks[i].Slack - got.Slacks[0].Slack; d > 1e-15 || d < -1e-15 {
			t.Errorf("slack not constant: %v", got.Slacks)
		}
	}
}

// TestConcurrentSubmissionsBitIdentical: many distinct jobs submitted
// concurrently, executed by several runners, must each match their direct
// run exactly.
func TestConcurrentSubmissionsBitIdentical(t *testing.T) {
	lib := testLibertyText(t)
	m := NewManager(Options{Runners: 3, Workers: 2, Telemetry: telemetry.New()})
	defer m.Close()

	slews := []int{60, 80, 100, 120, 140, 160}
	jobsOut := make([]*Job, len(slews))
	var wg sync.WaitGroup
	for i, s := range slews {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			cfg := staConfig(s)
			cfg.Liberty = lib
			j, err := m.Submit(cfg, fmt.Sprintf("tenant-%d", i%2), i%3)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobsOut[i] = j
		}(i, s)
	}
	wg.Wait()
	for i, j := range jobsOut {
		if j == nil {
			continue
		}
		waitDone(t, j)
		if err := j.Err(); err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		cfg := staConfig(slews[i])
		cfg.Liberty = lib
		want := directSTA(t, cfg)
		if !reflect.DeepEqual(j.Result().STA, want) {
			t.Errorf("job %d payload differs from direct run", i)
		}
	}
}

// TestPushoutJobMatchesDirectRun: a spice-backed sweep job run over the
// service's worker pool must be bit-identical to the direct experiments
// driver.
func TestPushoutJobMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level sweep")
	}
	cfg := Config{Experiment: ExpPushout, Cases: 3, RangeS: 0.4e-9}
	m := NewManager(Options{Workers: 2, Telemetry: telemetry.New()})
	defer m.Close()
	j, err := m.Submit(cfg, "t1", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if err := j.Err(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	got := j.Result().Pushout

	direct, err := experiments.RunPushout(crosstalkConfig("I"), experiments.PushoutOptions{
		Cases: 3, Range: 0.4e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.QuietArrival != direct.QuietArrival || got.Mean != direct.Mean ||
		got.Min != direct.Min || got.Max != direct.Max ||
		!reflect.DeepEqual(got.Pushouts, direct.Pushouts) {
		t.Errorf("service pushout differs from direct run:\n got %+v\nwant %+v", got, direct)
	}

	done, total := j.Progress()
	if done != 3 || total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", done, total)
	}
}

// TestCacheHitServesResubmissionWithZeroSolves: resubmitting an identical
// config must return a terminal job sharing the stored result, counted in
// jobs.cache_hits, with no new spice solves (spice.* counters frozen).
func TestCacheHitServesResubmissionWithZeroSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level sweep")
	}
	reg := telemetry.New()
	cfg := Config{Experiment: ExpPushout, Cases: 2, RangeS: 0.4e-9}
	m := NewManager(Options{Telemetry: reg})
	defer m.Close()

	j1, err := m.Submit(cfg, "t1", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if err := j1.Err(); err != nil {
		t.Fatalf("first job failed: %v", err)
	}
	before := reg.Snapshot()

	// Different tenant, different priority, same content: must hit.
	j2, err := m.Submit(cfg, "t2", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || j2.State() != StateDone {
		t.Fatalf("resubmission not served from cache: hit=%v state=%s", j2.CacheHit, j2.State())
	}
	if j2.Result() != j1.Result() {
		t.Error("cache hit does not share the stored result")
	}
	delta := reg.Snapshot().Delta(before)
	if got := delta.Counters["jobs.cache_hits"]; got != 1 {
		t.Errorf("jobs.cache_hits delta = %d, want 1", got)
	}
	for name, v := range delta.Counters {
		if strings.HasPrefix(name, "spice.") && v != 0 {
			t.Errorf("cache hit ran solves: %s moved by %d", name, v)
		}
	}
	for name, ts := range delta.Timers {
		if strings.HasPrefix(name, "spice.") && ts.Count != 0 {
			t.Errorf("cache hit ran solves: timer %s fired %d times", name, ts.Count)
		}
	}
}

// TestCacheHitSTA: the cheap-path version of the cache test, run even with
// -short: identical STA configs share one result.
func TestCacheHitSTA(t *testing.T) {
	lib := testLibertyText(t)
	cfg := staConfig(100)
	cfg.Liberty = lib
	reg := telemetry.New()
	m := NewManager(Options{Telemetry: reg})
	defer m.Close()

	j1, err := m.Submit(cfg, "t1", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, err := m.Submit(cfg, "t1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || j2.Result() != j1.Result() {
		t.Error("identical STA config not served from cache")
	}
	if got := reg.Counter("jobs.cache_hits").Value(); got != 1 {
		t.Errorf("jobs.cache_hits = %d, want 1", got)
	}
	if j1.Hash != j2.Hash || j1.Hash == "" {
		t.Errorf("hashes differ: %q vs %q", j1.Hash, j2.Hash)
	}
}

// TestQuotaRejection: a tenant's queued+running jobs are bounded; the
// excess submission fails with ErrQuota while other tenants still submit.
func TestQuotaRejection(t *testing.T) {
	lib := testLibertyText(t)
	reg := telemetry.New()
	m := newStoppedManager(Options{TenantQuota: 2, Backlog: 16, Telemetry: reg})
	for i := 0; i < 2; i++ {
		cfg := staConfig(60 + i)
		cfg.Liberty = lib
		if _, err := m.Submit(cfg, "greedy", 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cfg := staConfig(99)
	cfg.Liberty = lib
	if _, err := m.Submit(cfg, "greedy", 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submit: err = %v, want ErrQuota", err)
	}
	if _, err := m.Submit(cfg, "polite", 0); err != nil {
		t.Fatalf("other tenant blocked by greedy tenant's quota: %v", err)
	}
	if got := reg.Counter("jobs.rejected_quota").Value(); got != 1 {
		t.Errorf("jobs.rejected_quota = %d, want 1", got)
	}
}

// TestBacklogRejection: the global queue is bounded regardless of tenant.
func TestBacklogRejection(t *testing.T) {
	lib := testLibertyText(t)
	reg := telemetry.New()
	m := newStoppedManager(Options{Backlog: 3, TenantQuota: 100, Telemetry: reg})
	for i := 0; i < 3; i++ {
		cfg := staConfig(60 + i)
		cfg.Liberty = lib
		if _, err := m.Submit(cfg, fmt.Sprintf("t%d", i), 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cfg := staConfig(99)
	cfg.Liberty = lib
	if _, err := m.Submit(cfg, "t9", 0); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("over-backlog submit: err = %v, want ErrBacklogFull", err)
	}
	if got := reg.Counter("jobs.rejected_backlog").Value(); got != 1 {
		t.Errorf("jobs.rejected_backlog = %d, want 1", got)
	}
}

// TestPriorityOrdering: the queue pops by descending priority, FIFO within
// a level.
func TestPriorityOrdering(t *testing.T) {
	lib := testLibertyText(t)
	m := newStoppedManager(Options{Backlog: 16, TenantQuota: 16})
	prios := []int{0, 5, 3, 5, 1}
	ids := make([]string, len(prios))
	for i, p := range prios {
		cfg := staConfig(60 + i)
		cfg.Liberty = lib
		j, err := m.Submit(cfg, "t", p)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	var got []string
	m.mu.Lock()
	for m.pending.Len() > 0 {
		got = append(got, heap.Pop(&m.pending).(*Job).ID)
	}
	m.mu.Unlock()
	want := []string{ids[1], ids[3], ids[2], ids[4], ids[0]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pop order %v, want %v (priorities %v)", got, want, prios)
	}
}

// TestJobsListsMostRecentFirst: the listing behind GET /jobs is ordered by
// descending submission sequence, whatever order the ID map yields, on a
// listing large enough that a quadratic sort would show.
func TestJobsListsMostRecentFirst(t *testing.T) {
	lib := testLibertyText(t)
	const n = 2000
	m := newStoppedManager(Options{Backlog: n, TenantQuota: n})
	ids := make([]string, n)
	for i := range ids {
		cfg := staConfig(60 + i)
		cfg.Liberty = lib
		j, err := m.Submit(cfg, "t", i%3)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	all := m.Jobs()
	if len(all) != n {
		t.Fatalf("Jobs() lists %d jobs, want %d", len(all), n)
	}
	for k, j := range all {
		if want := ids[n-1-k]; j.ID != want {
			t.Fatalf("Jobs()[%d] = %s, want %s (most recent first)", k, j.ID, want)
		}
	}
}

// TestCancelQueuedReleasesQuota: canceling a queued job frees its tenant
// slot and terminates the job.
func TestCancelQueuedReleasesQuota(t *testing.T) {
	lib := testLibertyText(t)
	m := newStoppedManager(Options{TenantQuota: 1, Backlog: 16})
	cfg := staConfig(60)
	cfg.Liberty = lib
	j, err := m.Submit(cfg, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := staConfig(61)
	cfg2.Liberty = lib
	if _, err := m.Submit(cfg2, "t", 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("expected quota rejection, got %v", err)
	}
	if !m.Cancel(j.ID) {
		t.Fatal("cancel returned false")
	}
	if j.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State())
	}
	select {
	case <-j.Done():
	default:
		t.Error("done channel not closed after cancel")
	}
	if _, err := m.Submit(cfg2, "t", 0); err != nil {
		t.Fatalf("quota slot not released by cancel: %v", err)
	}
	if m.Cancel(j.ID) {
		t.Error("canceling a terminal job reported success")
	}
}

// TestCloseFailsQueuedJobs: Close cancels the backlog and rejects further
// submissions.
func TestCloseFailsQueuedJobs(t *testing.T) {
	lib := testLibertyText(t)
	m := NewManager(Options{Telemetry: telemetry.New()})
	cfg := staConfig(60)
	cfg.Liberty = lib
	j, _ := m.Submit(cfg, "t", 0)
	m.Close()
	waitDone(t, j)
	if _, err := m.Submit(cfg, "t", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestConfigValidation exercises the Normalized error paths the HTTP layer
// maps to 400s.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Experiment: "frobnicate"},
		{Experiment: ExpTable1, Config: "III"},
		{Experiment: ExpTable1, Techniques: []string{"NOPE"}},
		{Experiment: ExpTable1, Seed: 7},
		{Experiment: ExpTable1, Netlist: "design x"},
		{Experiment: ExpSTA},
		{Experiment: ExpSTA, Netlist: "design x"},
		{Experiment: ExpSTA, Netlist: "design x", Liberty: "library(l){}", Wire: "rc-tree"},
		{Experiment: ExpSTA, Netlist: "design x", Liberty: "library(l){}", Cases: 5},
		{Experiment: ExpSTA, Netlist: "design x", Liberty: "library(l){}", Require: map[string]string{"y": "banana"}},
		{Experiment: ExpSTA, Netlist: "design x", Liberty: "library(l){}", Require: map[string]string{"a": "1ns", "y": ""}},
	}
	for i, c := range bad {
		if _, err := c.Normalized(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("config %d: err = %v, want ErrInvalidConfig", i, err)
		}
	}
	good, err := Config{Experiment: ExpTable1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if good.Config != "I" || good.Cases != 200 || good.P == 0 || good.RangeS != 1e-9 {
		t.Errorf("defaults not applied: %+v", good)
	}
}

// TestConfigUpperBounds: each sweep-size limit admits its bound and
// rejects anything past it with an ErrInvalidConfig naming the field and
// the limit.
func TestConfigUpperBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = accepted
	}{
		{"cases at limit", Config{Experiment: ExpTable1, Cases: maxCases}, ""},
		{"cases over limit", Config{Experiment: ExpTable1, Cases: maxCases + 1}, "cases 10001 exceeds the limit of 10000"},
		{"p at limit", Config{Experiment: ExpTable1, P: maxP}, ""},
		{"p over limit", Config{Experiment: ExpTable1, P: maxP + 1}, "p 1001 exceeds the limit of 1000"},
		{"range at limit", Config{Experiment: ExpTable1, RangeS: maxRangeS}, ""},
		{"range over limit", Config{Experiment: ExpTable1, RangeS: 2e-8}, "range_s 2e-08 exceeds the limit of 1e-08 s"},
		{"range NaN", Config{Experiment: ExpTable1, RangeS: math.NaN()}, "range_s NaN exceeds the limit of 1e-08 s"},
	} {
		_, err := tc.cfg.Normalized()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: err = %v, want accepted", tc.name, err)
		case tc.want != "" && (!errors.Is(err, ErrInvalidConfig) || !strings.Contains(fmt.Sprint(err), tc.want)):
			t.Errorf("%s: err = %v, want ErrInvalidConfig with %q", tc.name, err, tc.want)
		}
	}
}

// TestConfigRejectsUnreadFields: a config that differs from an accepted
// one only in a field its experiment does not read is rejected, so equal
// results never sit under two cache addresses. RunPushout reads neither
// the technique settings nor, on the deterministic grid, the seed.
func TestConfigRejectsUnreadFields(t *testing.T) {
	pushout := Config{Experiment: ExpPushout, Cases: 3, RangeS: 0.4e-9}
	monteCarlo := pushout
	monteCarlo.MonteCarlo = true
	for _, base := range []Config{pushout, monteCarlo} {
		if _, err := base.Normalized(); err != nil {
			t.Fatalf("base config %+v rejected: %v", base, err)
		}
	}
	withP, withTechs, withSeed := pushout, pushout, pushout
	withP.P = eqwave.DefaultP
	withTechs.Techniques = []string{"SGDP"}
	withSeed.Seed = 7
	for name, c := range map[string]Config{"p": withP, "techniques": withTechs, "seed without monte_carlo": withSeed} {
		if _, err := c.Normalized(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("pushout with %s: err = %v, want ErrInvalidConfig", name, err)
		}
	}
	seeded := monteCarlo
	seeded.Seed = 7
	a, err := monteCarlo.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := seeded.Normalized()
	if err != nil {
		t.Fatalf("monte_carlo pushout with a seed rejected: %v", err)
	}
	if a.Hash() == b.Hash() {
		t.Error("Monte-Carlo seeds 0 and 7 share a cache address")
	}
	if a.P != 0 {
		t.Errorf("pushout normalized with p = %d, want none", a.P)
	}
}

// TestHashSemantics: equal content hashes equally; any scientific field
// change re-addresses the config.
func TestHashSemantics(t *testing.T) {
	a, err := Config{Experiment: ExpTable1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Config{Experiment: ExpTable1, Config: "i", Cases: 200}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Error("equivalent configs hash differently")
	}
	c, err := Config{Experiment: ExpTable1, Cases: 201}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Error("different case counts hash equally")
	}
}

// TestArtifactsWritten: with ArtifactsDir set, a finished job leaves its
// audit trail on disk.
func TestArtifactsWritten(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()
	m := NewManager(Options{Telemetry: telemetry.New(), ArtifactsDir: dir})
	defer m.Close()
	cfg := staConfig(100)
	cfg.Liberty = lib
	j, err := m.Submit(cfg, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	for _, name := range []string{"config.json", "metrics.json", "failures.json"} {
		if _, err := os.ReadFile(filepath.Join(dir, j.ID, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
}

// TestSTAJobIdealWireSlack pins the ideal-wire slack arithmetic end to end
// through the service: a 3-gate chain with 10+20+12 ps of cell delay
// against a 500 ps constraint.
func TestSTAJobIdealWireSlack(t *testing.T) {
	lib := testLibertyText(t)
	cfg := Config{
		Experiment: ExpSTA,
		Netlist:    testNetlistText(100),
		Liberty:    lib,
		Wire:       "ideal",
		Require:    map[string]string{"y": "500ps"},
	}
	m := NewManager(Options{Telemetry: telemetry.New()})
	defer m.Close()
	j, err := m.Submit(cfg, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	p := j.Result().STA
	// a rise -> n1 fall (+12ps INV) -> n2 fall (+20ps BUF) -> y rise (+10ps INV)
	wantAT := 42e-12
	if p.WorstAT < wantAT-1e-15 || p.WorstAT > wantAT+1e-15 {
		t.Errorf("worst arrival = %g, want %g", p.WorstAT, wantAT)
	}
	if p.WorstSlack == nil {
		t.Fatal("no worst slack")
	}
	wantSlack := 500e-12 - wantAT
	if d := p.WorstSlack.Slack - wantSlack; d > 1e-15 || d < -1e-15 {
		t.Errorf("worst slack = %g, want %g", p.WorstSlack.Slack, wantSlack)
	}
}
