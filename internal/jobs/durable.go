package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Durable layout under Options.DataDir:
//
//	<data>/journal.wal   CRC-framed write-ahead journal of job lifecycle
//	<data>/results/      content-addressed result store (<hash>.json)
//
// The contract: Submit fsyncs the submitted record before it returns, so
// any job a client saw acknowledged survives kill -9; a result is written
// to the store (temp + rename) before its done record is journaled, so a
// done record always has its artifact; and a job that was running at crash
// time is detected on boot by its missing terminal record.

// Durable file names inside DataDir.
const (
	journalFile = "journal.wal"
	resultsDir  = "results"
)

// RecoverPolicy selects what boot-time replay does with jobs that were
// *running* when the previous process died.
type RecoverPolicy int

const (
	// RecoverRequeue re-enqueues crashed in-flight jobs (the default).
	// Re-running is idempotent: results are content-addressed, and if a
	// racing twin already finished, the durable cache satisfies the job
	// with zero new solves.
	RecoverRequeue RecoverPolicy = iota
	// RecoverInterrupt marks crashed in-flight jobs terminal with
	// ErrInterrupted instead of re-running them — for deployments where a
	// half-run job must be inspected, not silently retried.
	RecoverInterrupt
)

// RecoveryReport summarizes what boot-time replay found. Retrieve it with
// Manager.Recovery.
type RecoveryReport struct {
	// CleanShutdown is true when the journal ends with the clean-shutdown
	// record Drain writes — the previous process exited on purpose.
	CleanShutdown bool
	// TornBytes is the size of the corrupt journal tail discarded (a crash
	// mid-append); 0 on a clean journal.
	TornBytes int64
	// Records is how many whole journal records replayed.
	Records int
	// Rehydrated counts terminal jobs restored (done jobs reconnect to
	// their stored result; failed/canceled keep their recorded outcome).
	Rehydrated int
	// Requeued counts jobs that were still queued and went back into the
	// priority queue.
	Requeued int
	// Resumed counts jobs that were running at crash time and were
	// re-enqueued (RecoverRequeue).
	Resumed int
	// Rescued counts jobs that were running at crash time but whose result
	// was already durable (the crash hit between the store put and the
	// done record, or a twin finished) — completed with zero new solves.
	Rescued int
	// Interrupted counts running-at-crash jobs marked terminal with
	// ErrInterrupted (RecoverInterrupt).
	Interrupted int
}

// Recovered reports whether replay had to repair anything a crash left
// behind (as opposed to resuming a cleanly drained queue).
func (r RecoveryReport) Recovered() bool {
	return r.Resumed > 0 || r.Rescued > 0 || r.Interrupted > 0 || r.TornBytes > 0
}

// Recovery returns the boot-time replay report (zero for an in-memory
// manager or a first boot on an empty DataDir).
func (m *Manager) Recovery() RecoveryReport { return m.recovery }

// Open starts a manager. With Options.DataDir set it is the durable
// constructor: it opens (creating if needed) the write-ahead journal and
// the content-addressed result store, replays the journal — rehydrating
// terminal jobs, re-enqueueing acknowledged-but-unfinished ones in
// priority order per Options.Recover — compacts the journal, and only then
// starts the runner goroutines. With an empty DataDir it is equivalent to
// NewManager and never fails.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		reg:        opts.Telemetry,
		ctx:        ctx,
		stop:       stop,
		byID:       make(map[string]*Job),
		byHash:     make(map[string]*Job),
		tenantLoad: make(map[string]int),
	}
	m.cond = sync.NewCond(&m.mu)

	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			stop()
			return nil, fmt.Errorf("jobs: create data dir: %w", err)
		}
		store, err := openResultStore(filepath.Join(opts.DataDir, resultsDir), opts.disk)
		if err != nil {
			stop()
			return nil, err
		}
		jn, recs, torn, err := openJournal(filepath.Join(opts.DataDir, journalFile), opts.disk)
		if err != nil {
			stop()
			return nil, err
		}
		m.store, m.journal = store, jn
		if err := m.replay(recs, torn); err != nil {
			jn.close()
			stop()
			return nil, err
		}
	}

	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// replayState accumulates one job's records during replay.
type replayState struct {
	sub     journalRecord
	running bool
	// runningAt is the recRunning record's timestamp; terminal rehydrated
	// jobs keep it as Started so their timeline survives the restart.
	runningAt time.Time
	term      *journalRecord
}

// replay rebuilds the manager's state from the journal records, then
// compacts the journal so restart cost stays bounded no matter how many
// restarts preceded this one. Caller is single-threaded (no runners yet).
func (m *Manager) replay(recs []journalRecord, torn int64) error {
	rep := RecoveryReport{TornBytes: torn, Records: len(recs)}
	rep.CleanShutdown = len(recs) > 0 && recs[len(recs)-1].Type == recShutdown

	byID := make(map[string]*replayState)
	var order []*replayState
	for i := range recs {
		rec := recs[i]
		switch rec.Type {
		case recSubmitted:
			st := &replayState{sub: rec}
			byID[rec.ID] = st
			order = append(order, st)
		case recRunning:
			if st := byID[rec.ID]; st != nil {
				st.running = true
				st.runningAt = rec.at()
			}
		case recDone, recFailed, recCanceled, recInterrupted:
			if st := byID[rec.ID]; st != nil {
				st.term = &recs[i]
			}
		case recShutdown:
			// Ordering marker only.
		}
	}

	for _, st := range order {
		if st.sub.Seq > m.seq {
			m.seq = st.sub.Seq
		}
		if st.sub.Config == nil {
			continue // unreadable submitted record; nothing to rebuild from
		}
		j := &Job{
			ID: st.sub.ID, Tenant: st.sub.Tenant, Priority: st.sub.Priority,
			Hash: st.sub.Hash, CacheHit: st.sub.CacheHit,
			cfg: *st.sub.Config, seq: st.sub.Seq,
			doneCh: make(chan struct{}),
		}
		j.created = st.sub.at()

		if st.term != nil {
			// A terminal job's running timestamp is history, not live state:
			// keep it so GET /jobs/{id} reconstructs the full timeline.
			j.started = st.runningAt
			switch st.term.Type {
			case recDone:
				if sr, ok := m.store.get(j.Hash); ok {
					m.rehydrateDone(j, sr, st.term.at())
					rep.Rehydrated++
					continue
				}
				// Done record without its artifact (operator deleted the
				// store?): fall through and re-run — content addressing
				// makes that safe.
			case recFailed:
				msg := st.term.Error
				if msg == "" {
					msg = "failed before the previous shutdown"
				}
				m.rehydrateTerminal(j, StateFailed, errors.New(msg), st.term.at())
				rep.Rehydrated++
				continue
			case recCanceled:
				m.rehydrateTerminal(j, StateCanceled, context.Canceled, st.term.at())
				rep.Rehydrated++
				continue
			case recInterrupted:
				m.rehydrateTerminal(j, StateInterrupted, ErrInterrupted, st.term.at())
				rep.Rehydrated++
				continue
			}
		}

		// Acknowledged but not terminal: the crash/restart interrupted it.
		if sr, ok := m.store.get(j.Hash); ok {
			// Its own put raced the crash, or an identical twin finished:
			// the result is durable, so the job completes without re-running.
			j.started = st.runningAt
			m.rehydrateDone(j, sr, j.created)
			rep.Rescued++
			continue
		}
		if st.running && m.opts.Recover == RecoverInterrupt {
			j.started = st.runningAt
			m.rehydrateTerminal(j, StateInterrupted, ErrInterrupted, time.Time{})
			m.appendLocked(journalRecord{Type: recInterrupted, ID: j.ID, Time: stamp(j.created)})
			rep.Interrupted++
			continue
		}
		// Going back into the queue: any previous running timestamp is
		// stale — the timeline restarts at "queued".
		j.started = time.Time{}
		j.state = StateQueued
		heap.Push(&m.pending, j)
		m.byID[j.ID] = j
		m.tenantLoad[j.Tenant]++
		if st.running {
			rep.Resumed++
		} else {
			rep.Requeued++
		}
	}

	m.recovery = rep
	m.reg.Gauge("jobs.queue_depth").Set(float64(len(m.pending)))
	if err := m.journal.compact(m.liveRecords()); err != nil {
		return err
	}
	return nil
}

// rehydrateDone restores a terminal done job sharing the stored result.
func (m *Manager) rehydrateDone(j *Job, sr *storedResult, finished time.Time) {
	j.state = StateDone
	j.result = sr.Result
	j.done, j.total = sr.Done, sr.Total
	j.finished = finished
	close(j.doneCh)
	m.byID[j.ID] = j
	if _, ok := m.byHash[j.Hash]; !ok {
		m.byHash[j.Hash] = j
	}
}

// rehydrateTerminal restores a failed/canceled/interrupted job.
func (m *Manager) rehydrateTerminal(j *Job, state State, err error, finished time.Time) {
	j.state = state
	j.err = err
	j.finished = finished
	close(j.doneCh)
	m.byID[j.ID] = j
}

// liveRecords renders the manager's current state as the minimal journal:
// every non-terminal job (submitted, plus running marker), and the most
// recent Options.retainTerminal terminal jobs. Jobs older than the
// retention window drop out of the journal — and out of byID, bounding
// both — while their results stay in the content-addressed store, so
// resubmitting them is still a zero-solve durable cache hit. Caller holds
// m.mu (or is the single-threaded replay).
func (m *Manager) liveRecords() []journalRecord {
	all := make([]*Job, 0, len(m.byID))
	for _, j := range m.byID {
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })

	terminal := 0
	for _, j := range all {
		if j.stateLocked().Terminal() {
			terminal++
		}
	}
	dropTerminal := terminal - m.opts.retainTerminal
	var recs []journalRecord
	for _, j := range all {
		j.mu.Lock()
		state, jerr := j.state, j.err
		created, started, finished := j.created, j.started, j.finished
		j.mu.Unlock()
		if state.Terminal() && dropTerminal > 0 {
			dropTerminal--
			delete(m.byID, j.ID)
			continue
		}
		cfg := j.cfg
		recs = append(recs, journalRecord{
			Type: recSubmitted, ID: j.ID, Seq: j.seq, Tenant: j.Tenant,
			Priority: j.Priority, Hash: j.Hash, CacheHit: j.CacheHit,
			Config: &cfg, Time: stamp(created),
		})
		// The running marker (with its timestamp) survives compaction even
		// for terminal jobs, so their timeline survives any number of
		// restarts.
		if !started.IsZero() && state != StateQueued {
			recs = append(recs, journalRecord{Type: recRunning, ID: j.ID, Time: stamp(started)})
		}
		switch state {
		case StateQueued:
		case StateRunning:
			if started.IsZero() {
				recs = append(recs, journalRecord{Type: recRunning, ID: j.ID})
			}
		case StateDone:
			recs = append(recs, journalRecord{Type: recDone, ID: j.ID, Hash: j.Hash, Time: stamp(finished)})
		case StateFailed:
			recs = append(recs, journalRecord{Type: recFailed, ID: j.ID, Error: errString(jerr), Time: stamp(finished)})
		case StateCanceled:
			recs = append(recs, journalRecord{Type: recCanceled, ID: j.ID, Time: stamp(finished)})
		case StateInterrupted:
			recs = append(recs, journalRecord{Type: recInterrupted, ID: j.ID, Time: stamp(finished)})
		}
	}
	return recs
}

// stateLocked returns the state taking the job's own lock.
func (j *Job) stateLocked() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// appendLocked journals one record, best-effort for non-acknowledgement
// records: an append failure is counted (jobs.journal_errors) but does not
// fail the in-memory transition — the worst a lost transition record costs
// is one idempotent re-run after the next restart. Submit's acknowledgement
// append is the exception and checks the error itself. Caller holds m.mu.
func (m *Manager) appendLocked(rec journalRecord) {
	if m.journal == nil {
		return
	}
	if err := m.journal.append(rec); err != nil {
		m.reg.Counter("jobs.journal_errors").Inc()
		return
	}
	m.maybeCompactLocked()
}

// maybeCompactLocked rewrites the journal once enough records accumulated.
// Caller holds m.mu.
func (m *Manager) maybeCompactLocked() {
	if m.journal == nil || m.journal.appends < m.opts.compactEvery {
		return
	}
	if err := m.journal.compact(m.liveRecords()); err != nil {
		m.reg.Counter("jobs.journal_errors").Inc()
	} else {
		m.reg.Counter("jobs.journal_compactions").Inc()
	}
}

// Drain is the graceful shutdown: stop admitting (Submit returns
// ErrDraining), stop dispatching queued jobs, give running jobs up to
// timeout to finish, cancel whatever is still running *without* journaling
// a terminal record — so the next boot re-runs them — then journal the
// clean-shutdown record and release the journal. Queued jobs stay queued
// in the journal and resume on the next boot in priority order. Idempotent
// and safe to call instead of Close.
func (m *Manager) Drain(timeout time.Duration) {
	m.mu.Lock()
	if m.closed || m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.cond.Broadcast() // idle runners exit; busy ones finish their job
	m.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		active := m.active
		m.mu.Unlock()
		if active == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Past the deadline: cancel stragglers. shuttingDown suppresses their
	// terminal journal records so the next boot treats them as
	// running-at-crash and re-runs them.
	m.mu.Lock()
	m.shuttingDown = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()

	m.mu.Lock()
	m.closed = true
	m.reg.Gauge("jobs.queue_depth").Set(0)
	m.reg.Gauge("jobs.active").Set(0)
	if m.journal != nil {
		if err := m.journal.append(journalRecord{Type: recShutdown, Time: stamp(time.Now())}); err != nil {
			m.reg.Counter("jobs.journal_errors").Inc()
		}
		m.journal.close()
	}
	m.mu.Unlock()
}
