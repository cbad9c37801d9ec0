package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
)

// copyTree copies the durable data directory, simulating what a crashed
// process leaves on disk: the manager that owns dir keeps running, so the
// copy is a moment-in-time disk image taken without any shutdown path.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatalf("copy data dir: %v", err)
	}
}

// resultJSON canonicalizes a result for bit-identity comparison across the
// JSON round-trip a rehydrated result takes.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDurableResultsSurviveRestart: jobs completed before a clean Drain are
// rehydrated on the next Open with bit-identical results, the boot reports
// the clean shutdown, and a resubmission is a durable cache hit that runs
// zero new solves.
func TestDurableResultsSurviveRestart(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()
	m, err := Open(Options{DataDir: dir, Runners: 2, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 3)
	want := make(map[string]string) // job ID -> result JSON
	for i := range cfgs {
		cfgs[i] = staConfig(60 + 10*i)
		cfgs[i].Liberty = lib
		j, err := m.Submit(cfgs[i], "durable", i)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s: state %s err %v", j.ID, j.State(), j.Err())
		}
		want[j.ID] = resultJSON(t, j.Result())
	}
	m.Drain(time.Second)

	reg := telemetry.New()
	m2, err := Open(Options{DataDir: dir, Runners: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.CleanShutdown {
		t.Errorf("drained shutdown not detected: %+v", rep)
	}
	if rep.Recovered() {
		t.Errorf("clean restart reported crash recovery: %+v", rep)
	}
	if rep.Rehydrated != len(cfgs) {
		t.Errorf("rehydrated %d jobs, want %d", rep.Rehydrated, len(cfgs))
	}
	for id, wantJSON := range want {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if j.State() != StateDone {
			t.Fatalf("job %s rehydrated as %s", id, j.State())
		}
		if got := resultJSON(t, j.Result()); got != wantJSON {
			t.Errorf("job %s result changed across restart:\n got %s\nwant %s", id, got, wantJSON)
		}
	}

	// Resubmitting a pre-restart config must be a cache hit with zero new
	// solves — the durable store replaces the work.
	before := reg.Snapshot()
	j, err := m2.Submit(cfgs[0], "other-tenant", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit || j.State() != StateDone {
		t.Fatalf("resubmission after restart not a cache hit: hit=%v state=%s", j.CacheHit, j.State())
	}
	delta := reg.Snapshot().Delta(before)
	for name, v := range delta.Counters {
		if strings.HasPrefix(name, "spice.") && v != 0 {
			t.Errorf("durable cache hit ran solves: %s moved by %d", name, v)
		}
	}
	for name, ts := range delta.Timers {
		if strings.HasPrefix(name, "spice.") && ts.Count != 0 {
			t.Errorf("durable cache hit ran work: timer %s fired %d times", name, ts.Count)
		}
	}
	for name, hs := range delta.Histograms {
		if (strings.HasPrefix(name, "spice.") || name == "jobs.run_seconds") && hs.Count != 0 {
			t.Errorf("durable cache hit ran work: histogram %s fired %d times", name, hs.Count)
		}
	}
}

// TestOpenReplaysLegacyJournal: a data directory written while STA jobs
// still carried a technique and pushout jobs a technique sample count
// opens, as every journal of those versions holds both. The fixture holds
// a done STA job with "technique":"WLS5", a done pushout job with "p":17,
// a clean-shutdown record, and then an acknowledged STA job with
// "technique":"P1" that never ran. The done jobs rehydrate under their
// stored hashes; the queued one runs and returns the done STA job's
// numbers, which no technique ever changed.
func TestOpenReplaysLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-journal"), dir)
	m, err := Open(Options{DataDir: dir, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rep := m.Recovery(); rep.Rehydrated != 2 || rep.Requeued != 1 {
		t.Errorf("recovery = %+v, want 2 rehydrated and 1 requeued", rep)
	}
	done := map[string]*Job{}
	for id, hash := range map[string]string{
		"job-1": "3c28dbc591158eb16779d3400a41a1f5c2c3ff944d10bdd9014cee00b7fdd28d",
		"job-2": "b3ca71c9796169d1deaf38f06b4f487269d787e4930cb2d86476441abd9a5af2",
	} {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if j.State() != StateDone || j.Hash != hash || j.Result() == nil {
			t.Fatalf("job %s: state %s, hash %s, result %v; want done under %s",
				id, j.State(), j.Hash, j.Result(), hash)
		}
		done[id] = j
	}
	if p := done["job-2"].Result().Pushout; p == nil || p.Cases != 2 {
		t.Errorf("pushout job rehydrated as %+v", done["job-2"].Result())
	}
	queued, ok := m.Get("job-3")
	if !ok {
		t.Fatal("queued job lost")
	}
	waitDone(t, queued)
	if err := queued.Err(); err != nil {
		t.Fatalf("queued job failed: %v", err)
	}
	if got, want := resultJSON(t, queued.Result()), resultJSON(t, done["job-1"].Result()); got != want {
		t.Errorf("replayed STA job differs from the stored one:\n got %s\nwant %s", got, want)
	}
}

// TestCrashRecoveryProperty is the crash-injection property test: build a
// durable workload, image the data directory as a crash would leave it,
// truncate the journal at a seeded random offset (the unsynced tail), and
// reopen. For every seed: no acknowledged job is lost, every recovered job
// completes with a bit-identical result, and nothing torn is ever served.
func TestCrashRecoveryProperty(t *testing.T) {
	lib := testLibertyText(t)
	for seed := 0; seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			m, err := Open(Options{DataDir: dir, Runners: 2, Telemetry: telemetry.New()})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			// Mixed-priority workload; every config distinct.
			nJobs := 3 + rng.Intn(4)
			wantByHash := make(map[string]string) // hash -> direct-run result JSON
			for i := 0; i < nJobs; i++ {
				cfg := staConfig(40 + 5*i + 101*seed)
				cfg.Liberty = lib
				j, err := m.Submit(cfg, fmt.Sprintf("tenant-%d", i%2), rng.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, j)
				if j.State() != StateDone {
					t.Fatalf("workload job failed: %v", j.Err())
				}
				wantByHash[j.Hash] = resultJSON(t, j.Result())
			}

			// Crash image: copy the live data dir, then cut the journal at a
			// random offset — everything past the cut is the unsynced tail.
			crashDir := t.TempDir()
			copyTree(t, dir, crashDir)
			jp := filepath.Join(crashDir, journalFile)
			info, err := os.Stat(jp)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Int63n(info.Size() + 1)
			if err := os.Truncate(jp, cut); err != nil {
				t.Fatal(err)
			}

			// The acknowledged set of the crashed world: submitted records in
			// the valid prefix. (An append whose fsync never finished was
			// never acknowledged to a client.)
			f, err := os.Open(jp)
			if err != nil {
				t.Fatal(err)
			}
			prefix, valid := readJournal(f)
			f.Close()
			acked := make(map[string]journalRecord)
			for _, rec := range prefix {
				if rec.Type == recSubmitted {
					acked[rec.ID] = rec
				}
			}

			reg := telemetry.New()
			m2, err := Open(Options{DataDir: crashDir, Runners: 2, Telemetry: reg})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer m2.Close()
			rep := m2.Recovery()
			if wantTorn := cut - valid; rep.TornBytes != wantTorn {
				t.Errorf("torn bytes = %d, want %d", rep.TornBytes, wantTorn)
			}

			// Property 1: no acknowledged job lost. Property 2: every
			// recovered job completes with a result bit-identical to the
			// pre-crash run (rescued from the store or recomputed — content
			// addressing makes them indistinguishable).
			for id, rec := range acked {
				j, ok := m2.Get(id)
				if !ok {
					t.Fatalf("acknowledged job %s lost (cut=%d)", id, cut)
				}
				waitDone(t, j)
				if j.State() != StateDone {
					t.Fatalf("job %s recovered into %s: %v", id, j.State(), j.Err())
				}
				if got := resultJSON(t, j.Result()); got != wantByHash[rec.Hash] {
					t.Errorf("job %s result not bit-identical after crash:\n got %s\nwant %s",
						id, got, wantByHash[rec.Hash])
				}
			}

			// Property 3: a config whose result was durable pre-crash is a
			// cache hit with zero new solves when resubmitted post-recovery.
			store, err := openResultStore(filepath.Join(crashDir, resultsDir), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range acked {
				if _, ok := store.get(rec.Hash); !ok || rec.Config == nil {
					continue
				}
				before := reg.Snapshot()
				j, err := m2.Submit(*rec.Config, "resubmit", 0)
				if err != nil {
					t.Fatal(err)
				}
				if !j.CacheHit || j.State() != StateDone {
					t.Fatalf("resubmission of durable %s not a cache hit", rec.Hash)
				}
				delta := reg.Snapshot().Delta(before)
				for name, v := range delta.Counters {
					if strings.HasPrefix(name, "spice.") && v != 0 {
						t.Errorf("cache hit ran solves: %s moved by %d", name, v)
					}
				}
				break
			}
		})
	}
}

// hookRunning installs a testHookRunning for one test. Tests using it must
// not run in parallel (package-global hook).
func hookRunning(t *testing.T, hook func(*Job)) {
	t.Helper()
	testHookRunning = hook
	t.Cleanup(func() { testHookRunning = nil })
}

// TestDrainResumesQueuedAndRunningJobs: a drain that times out on a stuck
// running job leaves both it and the queued backlog journaled as
// unfinished, and the next Open re-runs them to completion in one pass.
func TestDrainResumesQueuedAndRunningJobs(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()

	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	hookRunning(t, func(j *Job) {
		once.Do(func() { entered.Done() })
		<-release
	})

	m, err := Open(Options{DataDir: dir, Runners: 1, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := staConfig(300)
	cfgA.Liberty = lib
	cfgB := staConfig(310)
	cfgB.Liberty = lib
	jA, err := m.Submit(cfgA, "drain", 1)
	if err != nil {
		t.Fatal(err)
	}
	entered.Wait() // jA is running, pinned on the hook
	jB, err := m.Submit(cfgB, "drain", 0)
	if err != nil {
		t.Fatal(err)
	}

	// While draining, admission must answer ErrDraining (the HTTP 503).
	// Probes that race ahead of Drain taking the lock get admitted and are
	// counted into the expected requeue set.
	drained := make(chan struct{})
	go func() {
		m.Drain(50 * time.Millisecond)
		close(drained)
	}()
	probe := staConfig(999)
	probe.Liberty = lib
	admittedProbes := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := m.Submit(probe, "late", 0)
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrClosed) {
			break
		}
		if err == nil {
			admittedProbes++ // landed before draining flipped; resumes later
		} else {
			t.Fatalf("probe submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("draining manager kept admitting jobs")
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // let the canceled runner exit
	<-drained

	if jB.State() != StateQueued {
		t.Fatalf("queued job dispatched during drain: %s", jB.State())
	}

	testHookRunning = nil
	m2, err := Open(Options{DataDir: dir, Runners: 1, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// The pinned job either observed the cancel (replays as
	// running-at-crash: resumed or rescued) or raced past it and completed
	// durably after the deadline (rehydrated done) — both are loss-free.
	rep := m2.Recovery()
	if rep.Resumed+rep.Rescued+rep.Rehydrated != 1 {
		t.Errorf("recovery = %+v, want exactly 1 resumed/rescued/rehydrated", rep)
	}
	if rep.Requeued != 1+admittedProbes {
		t.Errorf("recovery = %+v, want %d requeued", rep, 1+admittedProbes)
	}
	for _, id := range []string{jA.ID, jB.ID} {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across drain", id)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Errorf("job %s: state %s err %v", id, j.State(), j.Err())
		}
	}
}

// TestRecoverInterruptPolicy: with RecoverInterrupt, a job that was running
// at crash time is marked terminal with ErrInterrupted instead of
// re-running; queued jobs still resume.
func TestRecoverInterruptPolicy(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()

	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	hookRunning(t, func(j *Job) {
		once.Do(func() { entered.Done() })
		<-release
	})

	m, err := Open(Options{DataDir: dir, Runners: 1, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := staConfig(400)
	cfgA.Liberty = lib
	cfgB := staConfig(410)
	cfgB.Liberty = lib
	jA, err := m.Submit(cfgA, "intr", 0)
	if err != nil {
		t.Fatal(err)
	}
	entered.Wait()
	jB, err := m.Submit(cfgB, "intr", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Crash image taken while jA runs and jB queues.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	close(release)
	m.Close()

	testHookRunning = nil
	m2, err := Open(Options{
		DataDir: crashDir, Runners: 1, Recover: RecoverInterrupt,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if rep.Interrupted != 1 || rep.Requeued != 1 {
		t.Fatalf("recovery = %+v, want 1 interrupted + 1 requeued", rep)
	}
	ja2, ok := m2.Get(jA.ID)
	if !ok {
		t.Fatal("interrupted job lost")
	}
	if ja2.State() != StateInterrupted || !errors.Is(ja2.Err(), ErrInterrupted) {
		t.Errorf("crashed running job: state=%s err=%v, want interrupted/ErrInterrupted",
			ja2.State(), ja2.Err())
	}
	jb2, ok := m2.Get(jB.ID)
	if !ok {
		t.Fatal("queued job lost")
	}
	waitDone(t, jb2)
	if jb2.State() != StateDone {
		t.Errorf("queued job after interrupt recovery: %s (%v)", jb2.State(), jb2.Err())
	}
}

// TestSubmitAfterCloseReturnsErrClosed: the typed sentinel the HTTP layer
// maps to 503, for both manager flavors.
func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	lib := testLibertyText(t)
	cfg := staConfig(500)
	cfg.Liberty = lib

	mem := NewManager(Options{Telemetry: telemetry.New()})
	mem.Close()
	if _, err := mem.Submit(cfg, "late", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("in-memory Submit after Close: err = %v, want ErrClosed", err)
	}

	dur, err := Open(Options{DataDir: t.TempDir(), Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	dur.Close()
	if _, err := dur.Submit(cfg, "late", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("durable Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestJournalCompactionBoundsState: with tight retention, a long stream of
// terminal jobs keeps both the journal and the in-memory listing bounded,
// while evicted results stay durable — a resubmission is still a zero-solve
// durable cache hit.
func TestJournalCompactionBoundsState(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()
	reg := telemetry.New()
	m, err := Open(Options{
		DataDir: dir, Runners: 1, retainTerminal: 2, compactEvery: 8,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	first := staConfig(700)
	first.Liberty = lib
	for i := 0; i < n; i++ {
		cfg := staConfig(700 + i)
		cfg.Liberty = lib
		j, err := m.Submit(cfg, "bound", 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %d failed: %v", i, j.Err())
		}
	}
	if reg.Counter("jobs.journal_compactions").Value() == 0 {
		t.Error("no compaction fired across the workload")
	}
	// Between compactions up to compactEvery appends (~compactEvery/3 jobs)
	// accumulate past the retention window; the listing must stay well
	// bounded below the workload size either way.
	if got := len(m.Jobs()); got > 2+8 {
		t.Errorf("job listing holds %d jobs, want <= retention+compactEvery slack", got)
	}
	m.Drain(time.Second)

	m2, err := Open(Options{DataDir: dir, Runners: 1, retainTerminal: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Recovery().Rehydrated; got > 2+8 {
		t.Errorf("restart rehydrated %d jobs, want <= retention+compactEvery slack", got)
	}
	// Boot-time compaction trims the listing to exactly the retention window.
	if got := len(m2.Jobs()); got != 2 {
		t.Errorf("post-compaction listing holds %d jobs, want retainTerminal=2", got)
	}
	// The first config was evicted from the journal long ago; its result
	// must still be durable.
	before := reg.Snapshot()
	j, err := m2.Submit(first, "bound", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit || j.State() != StateDone {
		t.Fatalf("evicted config not served from the durable store: hit=%v state=%s",
			j.CacheHit, j.State())
	}
	delta := reg.Snapshot().Delta(before)
	if delta.Counters["jobs.durable_cache_hits"] != 1 {
		t.Errorf("jobs.durable_cache_hits delta = %d, want 1",
			delta.Counters["jobs.durable_cache_hits"])
	}
	for name, v := range delta.Counters {
		if strings.HasPrefix(name, "spice.") && v != 0 {
			t.Errorf("durable cache hit ran solves: %s moved by %d", name, v)
		}
	}
}

// TestDurableSubmitFailsClosedOnJournalFault: when the acknowledgement
// append fails, Submit must reject with ErrDurable — never acknowledge a
// job that would not survive a crash — and must not register the job.
func TestDurableSubmitFailsClosedOnJournalFault(t *testing.T) {
	lib := testLibertyText(t)
	reg := telemetry.New()
	// Durable write 1 is the boot-time compaction (must succeed); write 2,
	// the acknowledgement append, fails.
	m, err := Open(Options{
		DataDir: t.TempDir(), Runners: 1, Telemetry: reg,
		disk: faultinject.New(faultinject.Config{DiskEvery: 1, DiskAfter: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg := staConfig(800)
	cfg.Liberty = lib
	_, err = m.Submit(cfg, "fault", 0)
	if !errors.Is(err, ErrDurable) {
		t.Fatalf("Submit with failing journal: err = %v, want ErrDurable", err)
	}
	if reg.Counter("jobs.rejected_durable").Value() != 1 {
		t.Errorf("jobs.rejected_durable = %d, want 1",
			reg.Counter("jobs.rejected_durable").Value())
	}
	if got := len(m.Jobs()); got != 0 {
		t.Errorf("rejected submission registered %d jobs", got)
	}
}

// TestResultStorePutFaultFailsJob: a result that cannot be made durable
// fails the job with ErrDurable rather than acknowledging a completion a
// crash would lose; nothing lands under the final artifact path.
func TestResultStorePutFaultFailsJob(t *testing.T) {
	lib := testLibertyText(t)
	dir := t.TempDir()
	reg := telemetry.New()
	// Durable writes 1 (boot compaction) and 2 (the acknowledgement append)
	// must succeed; writes 3+ — the running record, then the result-store
	// put — fail.
	m, err := Open(Options{
		DataDir: dir, Runners: 1, Telemetry: reg,
		disk: faultinject.New(faultinject.Config{DiskEvery: 1, DiskAfter: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg := staConfig(810)
	cfg.Liberty = lib
	j, err := m.Submit(cfg, "fault", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed || !errors.Is(j.Err(), ErrDurable) {
		t.Fatalf("job with failing store: state=%s err=%v, want failed/ErrDurable",
			j.State(), j.Err())
	}
	if reg.Counter("jobs.store_errors").Value() == 0 {
		t.Error("jobs.store_errors not counted")
	}
	store, err := openResultStore(filepath.Join(dir, resultsDir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.get(j.Hash); ok {
		t.Error("failed put is visible under the final artifact path")
	}
}
