package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/obs/httpserver"
	"noisewave/internal/telemetry"
)

const (
	// serveGates sizes each job's mesh: a hundred gates, so request
	// handling, the journal fsyncs and the store outweigh the timing. The
	// journal holds every submitted config, about 22 KB here, so this also
	// sets how much a run writes to disk.
	serveGates = 100
	// serveRepeatEvery makes every fourth submission of a caller repeat
	// one of its own earlier configs: a fixed quarter of cache hits, far
	// enough from half that the latency median is a fresh job's.
	serveRepeatEvery = 4
	// serveJobsPerSecond sizes a run: it submits a fixed number of jobs,
	// --seconds times this nominal rate, so the work does not vary with the
	// machine's speed. A 20 s run has 3000 jobs, 150 of them beyond the
	// p95. Each job costs about fifteen disk writes (journal appends and
	// result store, each fsynced); sent back to back, twice as many jobs
	// per run wore the disk's write rate down from one run to the next.
	serveJobsPerSecond = 150
	// serveSlots spreads the load: the run is cut into this many equal
	// slots, each starting with one boot of the service (a set-up sample)
	// and then a burst of its share of the jobs, so the measurement samples
	// the whole run and the disk drains between bursts.
	serveSlots = 10
	// serveWarmJobs of each caller's first jobs only warm up the freshly
	// booted service: a daemon pays that once, so latency percentiles skip
	// them. They are still checked.
	serveWarmJobs = 10
	// serveTemplateJobs is the size of the journal every boot replays.
	serveTemplateJobs = 100
	// serveTimeout fails a request or job that hangs, so a run ends.
	serveTimeout = time.Minute
)

// serveEnv is what every job of the run shares.
type serveEnv struct {
	dir     string
	libText string
	reg     *telemetry.Registry
}

// staJob returns the STA job config for the mesh with the given seed.
func (e *serveEnv) staJob(seed int64) (jobs.Config, error) {
	cfg := netgen.DefaultConfig(serveGates)
	cfg.Seed = seed
	d, err := netgen.Generate(cfg)
	if err != nil {
		return jobs.Config{}, err
	}
	var b bytes.Buffer
	if err := netlist.Write(&b, d); err != nil {
		return jobs.Config{}, err
	}
	return jobs.Config{Experiment: jobs.ExpSTA, Netlist: b.String(), Liberty: e.libText, Wire: "elmore"}, nil
}

// service is one boot of the job service: the manager over a data dir
// and the HTTP server in front of it.
type service struct {
	m    *jobs.Manager
	srv  *http.Server
	base string
	dir  string
}

// boot copies the template data dir and starts the service over it,
// returning the time jobs.Open (the journal replay) and the listen took.
func (e *serveEnv) boot(name string) (*service, time.Duration, time.Duration, error) {
	dir := filepath.Join(e.dir, name)
	if err := copyDir(dir, filepath.Join(e.dir, "template")); err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	m, err := jobs.Open(jobs.Options{DataDir: dir, Telemetry: e.reg})
	if err != nil {
		return nil, 0, 0, err
	}
	replay := time.Since(start)
	srv, ln, err := (&httpserver.Server{Registry: e.reg, Jobs: m}).Start("127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, 0, 0, err
	}
	total := time.Since(start)
	return &service{m: m, srv: srv, base: "http://" + ln.Addr().String(), dir: dir}, replay, total, nil
}

func (s *service) close() error {
	s.srv.Close()
	s.m.Close()
	return os.RemoveAll(s.dir)
}

// makeTemplate fills the template data dir every boot replays: a fixed
// sequence of completed jobs, a quarter of them cache hits. Its journal
// size, cache hits and timed gates are the workload's work counts.
func (e *serveEnv) makeTemplate(r *run) error {
	dir := filepath.Join(e.dir, "template")
	reg := telemetry.New()
	m, err := jobs.Open(jobs.Options{DataDir: dir, Telemetry: reg})
	if err != nil {
		return err
	}
	var seeds []int64
	for i := 0; i < serveTemplateJobs; i++ {
		seed := -int64(i + 1) // disjoint from every schedule's seeds
		if i%serveRepeatEvery == serveRepeatEvery-1 {
			seed = seeds[(i*7)%len(seeds)]
		}
		seeds = append(seeds, seed)
		cfg, err := e.staJob(seed)
		if err != nil {
			m.Close()
			return err
		}
		j, err := m.Submit(cfg, "template", 0)
		if err != nil {
			m.Close()
			return err
		}
		if err := j.Wait(context.Background()); err != nil {
			m.Close()
			return fmt.Errorf("template job %d: %w", i, err)
		}
	}
	m.Close()
	st, err := os.Stat(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	hits := snap.Counters["jobs.cache_hits"]
	r.check(hits == serveTemplateJobs/serveRepeatEvery, "template: %d cache hits, want %d", hits, serveTemplateJobs/serveRepeatEvery)
	r.counts["serve.journal_bytes"] = st.Size()
	// Journal records stamp times in RFC 3339 with trailing fractional
	// zeros trimmed, so each may be up to ten bytes shorter: three records
	// per fresh job, two per cache hit, one shutdown record.
	r.slack["serve.journal_bytes"] = 10 * (3*(serveTemplateJobs-hits) + 2*hits + 1)
	r.counts["serve.cache_hits"] = hits
	r.counts["serve.gates_timed"] = snap.Counters["sta.gates_timed"]
	return nil
}

// jobRecord is one submission of the closed loop.
type jobRecord struct {
	seed    int64
	warm    bool
	repeat  bool
	hit     bool
	result  []byte
	latency time.Duration
	submit  time.Duration
	fetch   time.Duration
	queue   time.Duration
	running time.Duration
	failure string
}

// loadStats is what closed-loop bursts measured.
type loadStats struct {
	wall  time.Duration
	recs  []jobRecord
	hits  int64
	alloc uint64
}

func (l *loadStats) add(o *loadStats) {
	l.wall += o.wall
	l.recs = append(l.recs, o.recs...)
	l.hits += o.hits
	l.alloc += o.alloc
}

// load drives the service with a closed loop of callers, each submitting
// perCaller jobs: it submits over HTTP, waits on the job's Done channel
// and fetches the result over HTTP. Traced loops also time each phase as
// a span.
func (e *serveEnv) load(s *service, seed int64, slot, callers, perCaller int, tr *tracer) (*loadStats, error) {
	hitsBefore := e.reg.Counter("jobs.cache_hits").Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	recs := make([][]jobRecord, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: serveTimeout}
			defer client.CloseIdleConnections()
			first := ((seed*1024+int64(slot))*16 + int64(c)) * 1_000_000
			rng := rand.New(rand.NewSource(first))
			var fresh []int // indexes of this caller's completed fresh jobs
			for k := 0; k < perCaller; k++ {
				rec := jobRecord{seed: first + int64(k), warm: slot == 0 && k < serveWarmJobs}
				if k%serveRepeatEvery == serveRepeatEvery-1 && len(fresh) > 0 {
					rec.seed, rec.repeat = recs[c][fresh[rng.Intn(len(fresh))]].seed, true
				}
				cfg, err := e.staJob(rec.seed)
				if err != nil {
					errs[c] = err
					return
				}
				body, err := json.Marshal(map[string]any{"tenant": fmt.Sprint("caller-", c), "config": cfg})
				if err != nil {
					errs[c] = err
					return
				}
				e.submitAndFetch(client, s, body, &rec, tr)
				if rec.failure == "" && !rec.repeat {
					fresh = append(fresh, len(recs[c]))
				}
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	st := &loadStats{wall: time.Since(start), hits: e.reg.Counter("jobs.cache_hits").Value() - hitsBefore}
	runtime.ReadMemStats(&after)
	st.alloc = after.TotalAlloc - before.TotalAlloc
	for c := range recs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		st.recs = append(st.recs, recs[c]...)
	}
	return st, nil
}

// submitAndFetch runs one job through the service and fills rec.
func (e *serveEnv) submitAndFetch(client *http.Client, s *service, body []byte, rec *jobRecord, tr *tracer) {
	root := tr.begin("serve.job", -1)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("http.submit", root)
	resp, err := client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	var status jobs.Status
	if err == nil {
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&status)
		}
		resp.Body.Close()
	}
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		rec.failure = err.Error()
		return
	}
	rec.hit = status.CacheHit
	j, ok := s.m.Get(status.ID)
	if !ok {
		rec.failure = "submitted job " + status.ID + " is unknown"
		return
	}
	sp = tr.begin("jobs.wait", root)
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	err = j.Wait(ctx)
	cancel()
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		rec.failure = err.Error()
		return
	}
	sp = tr.begin("http.result", root)
	resp, err = client.Get(s.base + "/jobs/" + status.ID + "/result")
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
		} else {
			rec.result, err = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
	}
	tr.end(sp)
	t3 := time.Now()
	if err != nil {
		rec.failure = err.Error()
		return
	}
	rec.latency, rec.submit, rec.fetch = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	if tl := j.Status().Timeline; !rec.hit && len(tl) == 4 {
		rec.queue, rec.running = tl[2].Time.Sub(tl[1].Time), tl[3].Time.Sub(tl[2].Time)
	}
}

// serviceRun is what one drive of the job service measured.
type serviceRun struct {
	untraced, traced *loadStats
	boots, replays   []float64
	compactions      int64
}

func runServe(r *run) error {
	var tr *tracer
	if r.opts.trace {
		tr = newTracer()
	}
	sr, err := r.driveService(r.opts.seconds, tr)
	if err != nil {
		return err
	}
	if r.opts.trace {
		r.setServiceLayers(sr)
		r.set("mem.alloc_mb", float64(sr.untraced.alloc)/(1<<20)/float64(len(sr.untraced.recs)), "MB")
		perJob := func(l *loadStats) float64 { return l.wall.Seconds() / float64(len(l.recs)) }
		r.set("trace.overhead_ratio", perJob(sr.traced)/perJob(sr.untraced), "ratio")
		return r.writeTrace(tr)
	}
	var lat []float64
	for _, rec := range sr.untraced.recs {
		if rec.failure == "" && !rec.warm {
			lat = append(lat, ms(rec.latency))
		}
	}
	r.set("throughput_per_s", float64(len(sr.untraced.recs))/sr.untraced.wall.Seconds(), "1/s")
	r.set("setup_s", median(sr.boots), "s")
	r.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	r.set("latency_p95_ms", quantile(lat, 0.95), "ms")
	return nil
}

// driveService boots the job service over a fixed journal and drives it
// with a closed loop of callers for the given seconds, then checks every
// result. With tr set, every other burst is traced.
func (r *run) driveService(seconds float64, tr *tracer) (*serviceRun, error) {
	e := &serveEnv{dir: filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid())), reg: telemetry.New()}
	defer os.RemoveAll(e.dir)
	var lib bytes.Buffer
	if err := netgen.SyntheticLibrary().Write(&lib); err != nil {
		return nil, err
	}
	e.libText = lib.String()
	if err := e.makeTemplate(r); err != nil {
		return nil, err
	}

	// One service takes the whole load, in bursts, one per slot. Every slot
	// also boots a second copy of the service, so setup_s is a median over
	// boots spread through the run.
	s, replay, boot, err := e.boot("load")
	if err != nil {
		return nil, err
	}
	sr := &serviceRun{untraced: &loadStats{}, traced: &loadStats{},
		boots: []float64{boot.Seconds()}, replays: []float64{replay.Seconds()}}
	callers := r.opts.workers
	perCaller := int(seconds*serveJobsPerSecond) / serveSlots / callers
	slotLen := time.Duration(seconds * float64(time.Second) / serveSlots)
	start := time.Now()
	for slot := 0; slot < serveSlots && err == nil; slot++ {
		time.Sleep(time.Until(start.Add(time.Duration(slot) * slotLen)))
		var b *service
		if b, replay, boot, err = e.boot(fmt.Sprintf("boot-%d", slot)); err != nil {
			break
		}
		sr.boots, sr.replays = append(sr.boots, boot.Seconds()), append(sr.replays, replay.Seconds())
		if err = b.close(); err != nil {
			break
		}
		runtime.GC() // every burst starts from the same heap
		into, rtr := sr.untraced, (*tracer)(nil)
		if slot%2 == 1 && tr != nil {
			into, rtr = sr.traced, tr
		}
		before := e.reg.Counter("jobs.journal_compactions").Value()
		var l *loadStats
		if l, err = e.load(s, r.opts.seed, slot, callers, perCaller, rtr); err == nil {
			into.add(l)
		}
		if rtr != nil {
			sr.compactions += e.reg.Counter("jobs.journal_compactions").Value() - before
		}
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, l := range []*loadStats{sr.untraced, sr.traced} {
		if err := r.checkServe(e, l); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// checkServe compares every fresh result with jobs.RunDirect on the same
// config, every repeat with its original, and the cache hits with the
// scheduled repeats. It runs outside the timed region, with the direct
// runs spread over nproc goroutines.
func (r *run) checkServe(e *serveEnv, l *loadStats) error {
	var fresh []int
	for i, rec := range l.recs {
		if rec.failure == "" && !rec.repeat {
			fresh = append(fresh, i)
		}
	}
	direct := make([][]byte, len(l.recs))
	errs := make([]error, r.opts.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.opts.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(fresh) && errs[w] == nil; k += r.opts.workers {
				i := fresh[k]
				cfg, err := e.staJob(l.recs[i].seed)
				if err != nil {
					errs[w] = err
					return
				}
				res, err := jobs.RunDirect(context.Background(), cfg, jobs.Options{})
				if err == nil {
					direct[i], err = json.Marshal(res)
				}
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	results := map[int64][]byte{}
	repeats := int64(0)
	for i, rec := range l.recs {
		r.attempted++
		if rec.failure != "" {
			r.failed++
			r.check(false, "job on mesh seed %d: %s", rec.seed, rec.failure)
			continue
		}
		r.check(rec.hit == rec.repeat, "job on mesh seed %d: cache hit %v, scheduled repeat %v", rec.seed, rec.hit, rec.repeat)
		if rec.repeat {
			repeats++
			r.check(bytes.Equal(rec.result, results[rec.seed]), "repeat of mesh seed %d returned another result", rec.seed)
			continue
		}
		r.check(bytes.Equal(bytes.TrimSpace(rec.result), direct[i]), "job on mesh seed %d: served result differs from RunDirect", rec.seed)
		results[rec.seed] = rec.result
	}
	r.check(l.hits == repeats, "%d cache hits, %d scheduled repeats", l.hits, repeats)
	return nil
}

// setServiceLayers reports the per-layer metrics of the traced bursts:
// each phase's latency per job, the job's own queue and run times from its
// timeline, and the service's journal and replay costs.
func (r *run) setServiceLayers(sr *serviceRun) {
	var submit, result, queue, running []float64
	for _, rec := range sr.traced.recs {
		if rec.warm {
			continue
		}
		submit, result = append(submit, ms(rec.submit)), append(result, ms(rec.fetch))
		if !rec.hit {
			queue, running = append(queue, ms(rec.queue)), append(running, ms(rec.running))
		}
	}
	for name, xs := range map[string][]float64{"http.submit_ms": submit, "http.result_ms": result,
		"jobs.queue_ms": queue, "jobs.run_ms": running} {
		r.set(name+".p50", quantile(xs, 0.50), "ms")
		r.set(name+".p99", quantile(xs, 0.99), "ms")
	}
	n := float64(len(sr.traced.recs))
	r.set("jobs.cache_hit_ratio", float64(sr.traced.hits)/n, "ratio")
	r.set("jobs.journal_kb_per_job", float64(r.counts["serve.journal_bytes"])/1024/serveTemplateJobs, "KB")
	r.set("jobs.compactions", float64(sr.compactions)/n, "count")
	r.set("setup.replay_s", median(sr.replays), "s")
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
