// Package jobs is the timing-as-a-service layer: a long-running in-process
// job service that accepts batch sweep and STA configurations, queues them
// with priorities and per-tenant quotas behind a bounded backlog, runs each
// sweep job's cases over the sweep worker pool, and serves results from a
// content-addressed store so resubmitting an identical configuration costs
// zero solves.
//
// The package wires together what the engine already provides as libraries:
// the bounded worker pool with bit-identical results at any worker count
// (internal/sweep), the quarantine/keep-going resilience layer, per-job run
// artifacts (internal/obs) as audit trails, hierarchical tracing, and the
// telemetry registry — all behind a Submit/Get/Result request path that
// internal/obs/httpserver exposes over HTTP and cmd/serve boots as a
// daemon.
//
// Job identity is content-addressed: a configuration is normalized
// (defaults applied), canonically serialized, and hashed; execution details
// that provably do not change the numbers — the worker count — live on the
// Manager, not in the configuration, so they never fragment the cache.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"noisewave/internal/eqwave"
	"noisewave/internal/netlist"
)

// Experiment names accepted by Config.Experiment.
const (
	ExpTable1  = "table1"
	ExpPushout = "pushout"
	ExpSTA     = "sta"
)

// Config is the JSON body of one batch job. Exactly the scientific content
// lives here: two configurations with equal Config hash produce bit-equal
// results, and the manager's content-addressed store relies on that.
type Config struct {
	// Experiment selects the driver: table1 | pushout | sta.
	Experiment string `json:"experiment"`

	// Sweep jobs (table1, pushout).
	Config     string   `json:"config,omitempty"`      // crosstalk configuration: I | II (default I)
	Cases      int      `json:"cases,omitempty"`       // alignment cases (default 200 table1 / 100 pushout)
	P          int      `json:"p,omitempty"`           // table1: technique sample count (default 35)
	RangeS     float64  `json:"range_s,omitempty"`     // alignment window in seconds (default 1e-9)
	Techniques []string `json:"techniques,omitempty"`  // table1 techniques (default: all)
	Seed       int64    `json:"seed,omitempty"`        // pushout Monte-Carlo seed (with monte_carlo only)
	MonteCarlo bool     `json:"monte_carlo,omitempty"` // pushout: random alignments
	KeepGoing  bool     `json:"keep_going,omitempty"`  // quarantine failing cases

	// STA jobs.
	Netlist string            `json:"netlist,omitempty"` // native netlist text
	Liberty string            `json:"liberty,omitempty"` // Liberty library text
	Wire    string            `json:"wire,omitempty"`    // ideal | elmore (default ideal)
	Require map[string]string `json:"require,omitempty"` // net -> required arrival ("500ps")
}

// Submission errors. The HTTP layer maps ErrBacklogFull and ErrQuota to
// 429, ErrInvalidConfig to 400, and ErrClosed/ErrDraining to 503 with a
// Retry-After so clients back off through a restart.
var (
	ErrBacklogFull   = errors.New("jobs: backlog full")
	ErrQuota         = errors.New("jobs: tenant quota exceeded")
	ErrInvalidConfig = errors.New("jobs: invalid config")
	ErrClosed        = errors.New("jobs: manager closed")
	// ErrDraining rejects submissions while a graceful shutdown lets the
	// running jobs finish (cmd/serve -drain-timeout).
	ErrDraining = errors.New("jobs: manager draining for shutdown")
	// ErrDurable wraps a write-ahead-journal or result-store failure: the
	// submission could not be made durable, so it was not accepted.
	ErrDurable = errors.New("jobs: durable store failure")
	// ErrInterrupted marks a job that was running when the daemon died and
	// the RecoverInterrupt policy refused to re-run (see RecoverPolicy).
	ErrInterrupted = errors.New("jobs: interrupted by daemon crash")
)

// Upper bounds on a sweep job's size, so one submission cannot pin a runner
// for hours. Each is at least 10× the largest value any in-repo caller
// uses: 200 cases, P = 141 in the psweep study and a 1 ns alignment window.
const (
	maxCases  = 10000
	maxP      = 1000
	maxRangeS = 1e-8 // seconds
)

// Normalized returns the config with defaults applied and every field
// validated — the canonical form the content hash is computed over. A
// field the experiment does not read is rejected, not ignored: it would
// give equal results two cache addresses.
func (c Config) Normalized() (Config, error) {
	switch c.Experiment {
	case ExpTable1, ExpPushout:
		if c.Config == "" {
			c.Config = "I"
		}
		c.Config = strings.ToUpper(c.Config)
		if c.Config != "I" && c.Config != "II" {
			return c, fmt.Errorf("%w: config %q (want I or II)", ErrInvalidConfig, c.Config)
		}
		if c.Cases <= 0 {
			if c.Experiment == ExpTable1 {
				c.Cases = 200
			} else {
				c.Cases = 100
			}
		}
		if c.Experiment == ExpTable1 && c.P <= 0 {
			c.P = eqwave.DefaultP
		}
		if c.RangeS <= 0 {
			c.RangeS = 1e-9
		}
		if c.Experiment == ExpPushout && (c.P != 0 || len(c.Techniques) > 0) {
			return c, fmt.Errorf("%w: p/techniques apply to table1 jobs only", ErrInvalidConfig)
		}
		if c.Experiment == ExpPushout && c.Seed != 0 && !c.MonteCarlo {
			return c, fmt.Errorf("%w: seed applies to monte_carlo pushout jobs only", ErrInvalidConfig)
		}
		if c.Cases > maxCases {
			return c, fmt.Errorf("%w: cases %d exceeds the limit of %d", ErrInvalidConfig, c.Cases, maxCases)
		}
		if c.P > maxP {
			return c, fmt.Errorf("%w: p %d exceeds the limit of %d", ErrInvalidConfig, c.P, maxP)
		}
		if !(c.RangeS <= maxRangeS) { // also rejects NaN
			return c, fmt.Errorf("%w: range_s %g exceeds the limit of %g s", ErrInvalidConfig, c.RangeS, maxRangeS)
		}
		for _, name := range c.Techniques {
			if _, err := eqwave.ByName(name); err != nil {
				return c, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			}
		}
		if c.Experiment == ExpTable1 && (c.Seed != 0 || c.MonteCarlo) {
			return c, fmt.Errorf("%w: seed/monte_carlo apply to pushout jobs only", ErrInvalidConfig)
		}
		if c.Netlist != "" || c.Liberty != "" || c.Wire != "" || len(c.Require) > 0 {
			return c, fmt.Errorf("%w: netlist/liberty/wire/require apply to sta jobs only", ErrInvalidConfig)
		}
	case ExpSTA:
		if c.Netlist == "" {
			return c, fmt.Errorf("%w: sta job needs a netlist", ErrInvalidConfig)
		}
		if c.Liberty == "" {
			return c, fmt.Errorf("%w: sta job needs a liberty library", ErrInvalidConfig)
		}
		if c.Wire == "" {
			c.Wire = "ideal"
		}
		if c.Wire != "ideal" && c.Wire != "elmore" {
			return c, fmt.Errorf("%w: wire %q (want ideal or elmore)", ErrInvalidConfig, c.Wire)
		}
		for _, net := range sortedRequireNets(c.Require) {
			if _, err := netlist.ParseQuantity(c.Require[net]); err != nil {
				return c, fmt.Errorf("%w: require %s: %v", ErrInvalidConfig, net, err)
			}
		}
		if c.Config != "" || c.Cases != 0 || c.P != 0 || c.RangeS != 0 ||
			len(c.Techniques) > 0 || c.Seed != 0 || c.MonteCarlo || c.KeepGoing {
			return c, fmt.Errorf("%w: sweep fields apply to table1/pushout jobs only", ErrInvalidConfig)
		}
	case "":
		return c, fmt.Errorf("%w: missing experiment", ErrInvalidConfig)
	default:
		return c, fmt.Errorf("%w: unknown experiment %q (want table1, pushout or sta)", ErrInvalidConfig, c.Experiment)
	}
	return c, nil
}

// Hash returns the content address of a *normalized* config: the SHA-256
// of its canonical JSON. encoding/json emits struct fields in declaration
// order and map keys sorted, so equal configs hash equally.
func (c Config) Hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		// A Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("jobs: marshal config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	// StateInterrupted is terminal: the job was running when the previous
	// daemon process died, and the recovery policy (RecoverInterrupt)
	// marked it for inspection instead of re-running it.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateInterrupted
}

// Result is the JSON-serializable outcome of one job. Exactly one of the
// experiment payloads is set.
type Result struct {
	Experiment string          `json:"experiment"`
	Table1     *Table1Payload  `json:"table1,omitempty"`
	Pushout    *PushoutPayload `json:"pushout,omitempty"`
	STA        *STAPayload     `json:"sta,omitempty"`
	// Excluded counts sweep cases kept out of the statistics (degraded or
	// quarantined); Failures names each quarantined case.
	Excluded int             `json:"excluded,omitempty"`
	Failures []FailureRecord `json:"failures,omitempty"`
}

// FailureRecord is one quarantined sweep case, flattened for JSON.
type FailureRecord struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// Table1Payload is the table1 job result: the per-technique accuracy rows.
type Table1Payload struct {
	Config string          `json:"config"`
	Cases  int             `json:"cases"`
	P      int             `json:"p"`
	Stats  []TechniqueStat `json:"stats"`
}

// TechniqueStat is one accuracy row, bit-exact against the direct driver.
type TechniqueStat struct {
	Name       string  `json:"name"`
	MaxAbs     float64 `json:"max_abs_s"`
	AvgAbs     float64 `json:"avg_abs_s"`
	MeanSigned float64 `json:"mean_signed_s"`
	Failures   int     `json:"failures"`
	N          int     `json:"n"`
}

// PushoutPayload is the pushout job result: the delay-noise distribution.
type PushoutPayload struct {
	Config       string    `json:"config"`
	Cases        int       `json:"cases"`
	QuietArrival float64   `json:"quiet_arrival_s"`
	Mean         float64   `json:"mean_s"`
	Min          float64   `json:"min_s"`
	Max          float64   `json:"max_s"`
	P50          float64   `json:"p50_s"`
	P95          float64   `json:"p95_s"`
	Pushouts     []float64 `json:"pushouts_s"`
}

// STAPayload is the sta job result: per-output timing, the critical path
// and the slack report.
type STAPayload struct {
	Design     string        `json:"design"`
	Gates      int           `json:"gates"`
	Outputs    []NetTimingJS `json:"outputs"`
	WorstNet   string        `json:"worst_net"`
	WorstEdge  string        `json:"worst_edge"`
	WorstAT    float64       `json:"worst_arrival_s"`
	Path       []PathStepJS  `json:"critical_path"`
	Slacks     []SlackJS     `json:"slacks,omitempty"`
	WorstSlack *SlackJS      `json:"worst_slack,omitempty"`
}

// NetTimingJS is one net's rise/fall timing.
type NetTimingJS struct {
	Net         string  `json:"net"`
	RiseArrival float64 `json:"rise_arrival_s"`
	RiseTrans   float64 `json:"rise_trans_s"`
	FallArrival float64 `json:"fall_arrival_s"`
	FallTrans   float64 `json:"fall_trans_s"`
}

// PathStepJS is one hop of the critical path.
type PathStepJS struct {
	Net     string  `json:"net"`
	Edge    string  `json:"edge"`
	Arrival float64 `json:"arrival_s"`
	Trans   float64 `json:"trans_s"`
	ViaGate string  `json:"via_gate,omitempty"`
}

// SlackJS is one slack entry of the report.
type SlackJS struct {
	Net      string  `json:"net"`
	Edge     string  `json:"edge"`
	Arrival  float64 `json:"arrival_s"`
	Required float64 `json:"required_s"`
	Slack    float64 `json:"slack_s"`
}

// sortedRequireNets returns the require map's net names in sorted order so
// slack reports render deterministically.
func sortedRequireNets(require map[string]string) []string {
	nets := make([]string, 0, len(require))
	for net := range require {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	return nets
}
