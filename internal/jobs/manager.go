package jobs

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"noisewave/internal/faultinject"
	"noisewave/internal/obs"
	"noisewave/internal/obs/logctx"
	"noisewave/internal/telemetry"
)

// Options configures a Manager.
type Options struct {
	// Backlog bounds the number of queued (not yet running) jobs; a Submit
	// beyond it is rejected with ErrBacklogFull (the HTTP layer's 429).
	// <= 0 selects 64.
	Backlog int
	// TenantQuota bounds each tenant's queued+running jobs; a Submit beyond
	// it is rejected with ErrQuota (429). <= 0 selects 8.
	TenantQuota int
	// Runners is the number of jobs executed concurrently. Each job runs
	// its own sweep over Workers workers, so the total parallelism is
	// Runners × Workers; the default 1 keeps one job's sweep owning the
	// pool at a time.
	Runners int
	// Workers sizes each job's sweep worker pool (0 = all cores). Not part
	// of job identity: any worker count produces bit-identical results.
	Workers int
	// Telemetry observes the service (jobs.* metrics) and every solve the
	// jobs run (spice.*, sweep.*, sta.* …). The httpserver /metrics page
	// typically shares this registry.
	Telemetry *telemetry.Registry
	// ArtifactsDir, when set, writes a per-job audit trail —
	// <ArtifactsDir>/<jobID>/ with the resolved config, the job-scoped
	// metrics delta, the hierarchical trace and the failure report.
	ArtifactsDir string
	// DataDir, when set (use Open, not NewManager), roots the durable
	// store: the fsync'd write-ahead journal of job lifecycle records and
	// the on-disk content-addressed result store. Acknowledged jobs and
	// completed results then survive crashes and restarts.
	DataDir string
	// Recover selects what boot-time replay does with jobs that were
	// running when the previous process died (default: re-enqueue).
	Recover RecoverPolicy
	// RetainTerminal bounds how many terminal jobs the journal (and the
	// job listing) keeps across compactions. <= 0 selects 256. Results
	// evicted from the listing remain durable in the result store.
	RetainTerminal int
	// CompactEvery is the number of journal appends between compaction
	// passes. <= 0 selects 1024.
	CompactEvery int
	// Disk, when set, injects deterministic disk faults into journal
	// appends and result-store writes (crash-recovery tests).
	Disk *faultinject.Injector
	// Log receives structured lifecycle events (queued, running, done,
	// failed…), each carrying the job ID as the "corr" attribute. Tee it
	// with a FlightRecorder handler (logctx.Tee) to feed the flight ring.
	// nil = silent.
	Log *slog.Logger
	// Flight, when set alongside ArtifactsDir, is dumped into a failing
	// job's artifact directory (flight.json) — the events leading up to the
	// failure become part of the audit trail.
	Flight *obs.FlightRecorder
}

func (o Options) withDefaults() Options {
	if o.Backlog <= 0 {
		o.Backlog = 64
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = 8
	}
	if o.Runners <= 0 {
		o.Runners = 1
	}
	if o.RetainTerminal <= 0 {
		o.RetainTerminal = 256
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 1024
	}
	return o
}

// Job is one submitted configuration's lifecycle record. All exported
// methods are safe for concurrent use.
type Job struct {
	ID       string
	Tenant   string
	Priority int
	Hash     string
	// CacheHit marks a job served entirely from the content-addressed
	// result store: it was born in StateDone and ran zero solves.
	CacheHit bool

	cfg Config
	seq int64

	mu       sync.Mutex
	state    State
	err      error
	result   *Result
	done     int
	total    int
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	doneCh chan struct{}
}

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error of a failed job (nil otherwise).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the job's result (nil until StateDone).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Progress returns the job's settled/total sweep-case counts.
func (j *Job) Progress() (done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done, j.total
}

// Done returns a channel closed when the job reaches a terminal state.
// Production callers block with Wait; the job-service tests select on Done.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Wait blocks until the job is terminal or ctx is canceled, returning the
// job's terminal error (nil for StateDone).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.doneCh:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status is a point-in-time JSON view of a job.
type Status struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant,omitempty"`
	Priority int       `json:"priority"`
	Hash     string    `json:"hash"`
	State    State     `json:"state"`
	CacheHit bool      `json:"cache_hit"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Timeline is the lifecycle phase history (submitted → queued →
	// running → terminal state), reconstructed from the manager's
	// transition timestamps — which the journal preserves, so a timeline
	// survives restarts.
	Timeline []PhaseStamp `json:"timeline,omitempty"`
}

// PhaseStamp is one lifecycle transition in a job's timeline.
type PhaseStamp struct {
	Phase string    `json:"phase"`
	Time  time.Time `json:"time"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID: j.ID, Tenant: j.Tenant, Priority: j.Priority, Hash: j.Hash,
		State: j.state, CacheHit: j.CacheHit, Done: j.done, Total: j.total,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	s.Timeline = []PhaseStamp{{Phase: "submitted", Time: j.created}}
	if j.CacheHit {
		// Born done from the content-addressed store: never queued or run.
		if !j.finished.IsZero() {
			s.Timeline = append(s.Timeline, PhaseStamp{Phase: string(j.state), Time: j.finished})
		}
		return s
	}
	s.Timeline = append(s.Timeline, PhaseStamp{Phase: "queued", Time: j.created})
	if !j.started.IsZero() {
		s.Timeline = append(s.Timeline, PhaseStamp{Phase: "running", Time: j.started})
	}
	if j.state.Terminal() && !j.finished.IsZero() {
		s.Timeline = append(s.Timeline, PhaseStamp{Phase: string(j.state), Time: j.finished})
	}
	return s
}

// pendingHeap orders queued jobs by descending priority, FIFO within a
// priority level (ascending submission sequence).
type pendingHeap []*Job

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(a, b int) bool {
	if h[a].Priority != h[b].Priority {
		return h[a].Priority > h[b].Priority
	}
	return h[a].seq < h[b].seq
}
func (h pendingHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// Manager owns the job queue, the runner pool and the content-addressed
// result store. Create with NewManager, stop with Close.
type Manager struct {
	opts Options
	reg  *telemetry.Registry

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	seq     int64
	pending pendingHeap
	byID    map[string]*Job
	// byHash is the in-memory half of the content-addressed store: config
	// hash → the completed job whose result every future identical
	// submission shares. With DataDir set, the on-disk resultStore backs
	// it across restarts.
	byHash map[string]*Job
	// tenantLoad counts each tenant's queued+running jobs for the quota.
	tenantLoad map[string]int
	// active counts jobs currently executing on a runner; Drain waits on
	// it.
	active int
	// draining stops admission and dispatch during graceful shutdown.
	draining bool
	// shuttingDown suppresses terminal journal records for jobs canceled
	// by the shutdown itself, so the next boot re-runs them.
	shuttingDown bool

	// Durable state (nil for an in-memory manager).
	journal  *journal
	store    *resultStore
	recovery RecoveryReport
}

// logger returns the lifecycle logger (Discard when Options.Log is nil),
// so call sites never nil-check.
func (m *Manager) logger() *slog.Logger {
	if m.opts.Log != nil {
		return m.opts.Log
	}
	return logctx.Discard()
}

// NewManager starts an in-memory manager with its runner goroutines. For a
// durable manager (Options.DataDir) use Open, which can fail; NewManager
// panics if DataDir is set, so a dropped journal can never be silent.
func NewManager(opts Options) *Manager {
	if opts.DataDir != "" {
		panic("jobs: NewManager cannot open a durable manager; use Open")
	}
	m, err := Open(opts)
	if err != nil {
		// Unreachable: without DataDir, Open has no failure path.
		panic(err)
	}
	return m
}

// Close stops accepting submissions, cancels the active jobs, fails the
// queued ones and waits for the runners to drain. A durable manager
// instead hard-drains (Drain with a zero deadline): queued and interrupted
// jobs stay journaled and resume on the next Open.
func (m *Manager) Close() {
	if m.journal != nil {
		m.Drain(0)
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.pending {
		m.finishLocked(j, nil, ErrClosed, StateCanceled)
	}
	m.pending = nil
	m.reg.Gauge("jobs.queue_depth").Set(0)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stop() // cancels running jobs' contexts
	m.wg.Wait()
}

// Submit validates, content-addresses and enqueues a configuration.
//
// A config whose hash is already in the result store — in memory, or on
// disk from a previous process — returns immediately with a terminal job
// that shares the stored result (CacheHit): no queue slot, no quota
// charge, zero solves. Otherwise the job is enqueued unless the tenant is
// over quota (ErrQuota) or the backlog is full (ErrBacklogFull). On a
// durable manager the submitted record is fsync'd into the journal before
// Submit returns — a job a client saw acknowledged survives kill -9 — and
// a journal write failure rejects the submission with ErrDurable.
func (m *Manager) Submit(cfg Config, tenant string, priority int) (*Job, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		m.reg.Counter("jobs.rejected_invalid").Inc()
		return nil, err
	}
	hash := norm.Hash()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.draining {
		return nil, ErrDraining
	}
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)

	prior, hit := m.byHash[hash]
	if !hit && m.store != nil {
		// Miss in memory; the durable store may still have it (an earlier
		// process, or a terminal job evicted by journal compaction).
		if sr, ok := m.store.get(hash); ok {
			prior = &Job{Hash: hash, state: StateDone, result: sr.Result,
				done: sr.Done, total: sr.Total, doneCh: make(chan struct{})}
			close(prior.doneCh)
			m.byHash[hash] = prior
			m.reg.Counter("jobs.durable_cache_hits").Inc()
			hit = true
		}
	}
	if hit {
		j := &Job{
			ID: id, Tenant: tenant, Priority: priority, Hash: hash,
			CacheHit: true, cfg: norm, seq: m.seq,
			state:  StateDone,
			result: prior.Result(),
			doneCh: make(chan struct{}),
		}
		j.created = time.Now()
		j.started, j.finished = j.created, j.created
		j.done, j.total = prior.done, prior.total
		close(j.doneCh)
		m.byID[id] = j
		// Best-effort journaling: the client already holds the result, so
		// a failed append only costs this job its place in the restart
		// listing, never an acknowledged outcome.
		cfgCopy := norm
		m.appendLocked(journalRecord{
			Type: recSubmitted, ID: id, Seq: m.seq, Tenant: tenant,
			Priority: priority, Hash: hash, CacheHit: true,
			Config: &cfgCopy, Time: j.created,
		})
		m.appendLocked(journalRecord{Type: recDone, ID: id, Hash: hash, Time: j.created})
		m.reg.Counter("jobs.submitted").Inc()
		m.reg.Counter("jobs.cache_hits").Inc()
		m.reg.Counter("jobs.completed").Inc()
		m.logger().Info("job cache hit",
			"corr", id, "tenant", tenant, "hash", hash, "durable", prior.ID == "")
		return j, nil
	}

	if m.tenantLoad[tenant] >= m.opts.TenantQuota {
		m.reg.Counter("jobs.rejected_quota").Inc()
		m.logger().Warn("job rejected",
			"corr", id, "tenant", tenant, "reason", "quota",
			"in_flight", m.tenantLoad[tenant], "quota", m.opts.TenantQuota)
		return nil, fmt.Errorf("%w: tenant %q has %d jobs in flight (quota %d)",
			ErrQuota, tenant, m.tenantLoad[tenant], m.opts.TenantQuota)
	}
	if len(m.pending) >= m.opts.Backlog {
		m.reg.Counter("jobs.rejected_backlog").Inc()
		m.logger().Warn("job rejected",
			"corr", id, "tenant", tenant, "reason", "backlog",
			"queued", len(m.pending), "backlog", m.opts.Backlog)
		return nil, fmt.Errorf("%w: %d jobs queued (backlog %d)",
			ErrBacklogFull, len(m.pending), m.opts.Backlog)
	}

	j := &Job{
		ID: id, Tenant: tenant, Priority: priority, Hash: hash,
		cfg: norm, seq: m.seq,
		state:  StateQueued,
		doneCh: make(chan struct{}),
	}
	j.created = time.Now()
	if m.journal != nil {
		// The acknowledgement write: until this record is on disk the job
		// does not exist, so a failure here must reject the submission.
		cfgCopy := norm
		if err := m.journal.append(journalRecord{
			Type: recSubmitted, ID: id, Seq: m.seq, Tenant: tenant,
			Priority: priority, Hash: hash, Config: &cfgCopy, Time: j.created,
		}); err != nil {
			m.reg.Counter("jobs.journal_errors").Inc()
			m.reg.Counter("jobs.rejected_durable").Inc()
			m.logger().Error("job rejected",
				"corr", id, "tenant", tenant, "reason", "journal", "err", err)
			return nil, fmt.Errorf("%w: %v", ErrDurable, err)
		}
		m.maybeCompactLocked()
	}
	heap.Push(&m.pending, j)
	m.byID[id] = j
	m.tenantLoad[tenant]++
	m.reg.Counter("jobs.submitted").Inc()
	m.reg.Gauge("jobs.queue_depth").Set(float64(len(m.pending)))
	m.logger().Info("job queued",
		"corr", id, "tenant", tenant, "priority", priority, "hash", hash,
		"experiment", norm.Experiment, "queue_depth", len(m.pending))
	m.cond.Signal()
	return j, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// Jobs returns every known job, most recently submitted first. Only the
// copy holds the manager lock; the sort (by descending submission
// sequence, which never changes once a job exists) runs outside it.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.byID))
	for _, j := range m.byID {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq > out[b].seq })
	return out
}

// Cancel cancels a queued or running job. It returns false when the job is
// unknown or already terminal.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.byID[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateQueued:
		for i, q := range m.pending {
			if q == j {
				heap.Remove(&m.pending, i)
				break
			}
		}
		m.reg.Gauge("jobs.queue_depth").Set(float64(len(m.pending)))
		m.finishLocked(j, nil, context.Canceled, StateCanceled)
		m.mu.Unlock()
		return true
	case StateRunning:
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		m.mu.Unlock()
		return false
	}
}

// finishLocked moves a job to a terminal state, releases its tenant-quota
// slot, journals the transition and closes its done channel. Caller holds
// m.mu.
func (m *Manager) finishLocked(j *Job, res *Result, err error, state State) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.err = err
	j.finished = time.Now()
	finished := j.finished
	wall := finished.Sub(j.created).Seconds()
	done, total := j.done, j.total
	j.mu.Unlock()
	if m.tenantLoad[j.Tenant] > 0 {
		m.tenantLoad[j.Tenant]--
	}
	switch state {
	case StateFailed:
		m.logger().Error("job failed",
			"corr", j.ID, "tenant", j.Tenant, "err", err,
			"done", done, "total", total, "wall_seconds", wall)
	default:
		m.logger().Info("job "+string(state),
			"corr", j.ID, "tenant", j.Tenant,
			"done", done, "total", total, "wall_seconds", wall)
	}
	switch state {
	case StateDone:
		m.reg.Counter("jobs.completed").Inc()
		// Publish into the content-addressed store (first writer wins; any
		// later identical job would have produced bit-identical bytes).
		// The durable half (resultStore.put) already happened on the
		// runner, before this record, so a done record always has its
		// artifact.
		if _, ok := m.byHash[j.Hash]; !ok {
			m.byHash[j.Hash] = j
		}
		m.appendLocked(journalRecord{Type: recDone, ID: j.ID, Hash: j.Hash, Time: finished})
	case StateFailed:
		m.reg.Counter("jobs.failed").Inc()
		m.appendLocked(journalRecord{Type: recFailed, ID: j.ID, Error: errString(err), Time: finished})
	case StateCanceled:
		m.reg.Counter("jobs.canceled").Inc()
		// A job canceled *by shutdown* keeps its journal open-ended on
		// purpose: the next boot sees running-without-terminal and re-runs
		// it. Only a user-initiated cancel is terminal durably.
		if !m.shuttingDown {
			m.appendLocked(journalRecord{Type: recCanceled, ID: j.ID, Time: finished})
		}
	case StateInterrupted:
		m.reg.Counter("jobs.interrupted").Inc()
	}
	close(j.doneCh)
}

// testHookRunning, when set (tests only), runs on the runner goroutine
// after a job enters StateRunning and before it executes — a deterministic
// place to block a job mid-flight for drain/crash tests.
var testHookRunning func(*Job)

// runner is one job-executing goroutine: pop the highest-priority queued
// job, run it, publish the outcome durably, repeat until Close or Drain.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed && !m.draining {
			m.cond.Wait()
		}
		if m.closed || m.draining {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.pending).(*Job)
		m.reg.Gauge("jobs.queue_depth").Set(float64(len(m.pending)))
		ctx, cancel := context.WithCancel(m.ctx)
		j.mu.Lock()
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		j.mu.Unlock()
		m.active++
		m.reg.Gauge("jobs.active").Add(1)
		// The running record makes the crash-vs-queued distinction
		// replayable; losing it is harmless (the job re-runs either way).
		m.appendLocked(journalRecord{Type: recRunning, ID: j.ID, Time: j.started})
		m.mu.Unlock()

		queued := j.started.Sub(j.created).Seconds()
		m.reg.Histogram("jobs.queue_seconds").Observe(queued)
		m.logger().Info("job running",
			"corr", j.ID, "tenant", j.Tenant, "queue_seconds", queued)

		if testHookRunning != nil {
			testHookRunning(j)
		}
		stopTimer := m.reg.Histogram("jobs.run_seconds").Start()
		res, err := m.execute(ctx, j)
		stopTimer()
		cancel()

		// Durability ordering: the result artifact lands (temp + rename +
		// fsync) before the done record is journaled, so replay never
		// finds a done record without its artifact. A failed put fails the
		// job — the config can be resubmitted, and nothing torn is ever
		// visible under the final path.
		if err == nil && m.store != nil {
			done, total := j.Progress()
			if perr := m.store.put(j.Hash, res, done, total); perr != nil {
				m.reg.Counter("jobs.store_errors").Inc()
				err = fmt.Errorf("%w: %v", ErrDurable, perr)
			}
		}

		m.mu.Lock()
		m.active--
		m.reg.Gauge("jobs.active").Add(-1)
		switch {
		case err == nil:
			m.finishLocked(j, res, nil, StateDone)
		case canceledErr(err):
			m.finishLocked(j, nil, err, StateCanceled)
		default:
			m.finishLocked(j, nil, err, StateFailed)
		}
		m.mu.Unlock()
	}
}
