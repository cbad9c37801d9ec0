package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// Artifact file names inside a run directory. EXPERIMENTS.md "Tracing &
// run artifacts" documents the layout.
const (
	FileConfig   = "config.json"   // the resolved run configuration
	FileMetrics  = "metrics.json"  // final telemetry snapshot
	FileTrace    = "trace.json"    // Chrome trace_event file (Perfetto-loadable)
	FileJournal  = "journal.jsonl" // one line per settled sweep case
	FileFailures = "failures.json" // quarantined cases, per experiment
	FileLog      = "log.jsonl"     // structured log records of the run (JSON lines)
	FileFlight   = "flight.json"   // flight-recorder dump (failure / recovery boots)
)

// RunArtifacts writes the self-describing artifact directory of one
// cmd/repro (or cmd/bench) run. Every writer is atomic — content lands in
// <name>.tmp and is renamed over the final path — so a crash mid-write can
// never leave truncated JSON under a name that a recovery pass or the
// /trace/{case} endpoint would then serve. Partial runs therefore leave
// partial directories whose every present file is whole.
type RunArtifacts struct {
	dir string
}

// OpenRun creates (if needed) the run directory and returns the writer.
func OpenRun(dir string) (*RunArtifacts, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: empty artifact directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: create artifact dir: %w", err)
	}
	return &RunArtifacts{dir: dir}, nil
}

// Dir returns the run directory.
func (a *RunArtifacts) Dir() string { return a.dir }

// atomicWrite streams content into <name>.tmp via write, then renames it
// over the final path; on any error the temp file is removed and the final
// path is left untouched (either absent or holding its previous whole
// content).
func (a *RunArtifacts) atomicWrite(name string, write func(io.Writer) error) error {
	final := filepath.Join(a.dir, name)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeJSON writes v as indented JSON to name inside the run directory.
func (a *RunArtifacts) writeJSON(name string, v any) error {
	return a.atomicWrite(name, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// WriteConfig records the resolved run configuration (any JSON-marshalable
// struct; cmd/repro writes its flag set) as config.json.
func (a *RunArtifacts) WriteConfig(cfg any) error {
	return a.writeJSON(FileConfig, cfg)
}

// WriteMetrics records the final telemetry snapshot as metrics.json.
func (a *RunArtifacts) WriteMetrics(s telemetry.Snapshot) error {
	return a.atomicWrite(FileMetrics, s.WriteJSON)
}

// WriteTrace renders the tracer's spans twice: trace.json in Chrome
// trace_event form (load it in Perfetto or chrome://tracing) and
// journal.jsonl with one provenance line per settled sweep case. A nil
// tracer writes nothing and returns nil, so the call site does not need a
// tracing-enabled branch.
func (a *RunArtifacts) WriteTrace(tr *trace.Tracer) error {
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	if err := a.atomicWrite(FileTrace, func(w io.Writer) error {
		return trace.WriteChrome(w, tr.Epoch(), spans)
	}); err != nil {
		return err
	}
	return a.atomicWrite(FileJournal, func(w io.Writer) error {
		return trace.WriteJournal(w, tr.Epoch(), spans)
	})
}

// WriteLog records the run's captured structured log output (JSON lines,
// as accumulated by a logctx.SyncBuffer behind a JSON handler) as
// log.jsonl. An empty capture writes nothing and returns nil, so quiet
// runs don't grow an empty file.
func (a *RunArtifacts) WriteLog(jsonl string) error {
	if jsonl == "" {
		return nil
	}
	return a.atomicWrite(FileLog, func(w io.Writer) error {
		_, err := io.WriteString(w, jsonl)
		return err
	})
}

// WriteFlight dumps the flight recorder as flight.json. A nil recorder
// writes nothing and returns nil.
func (a *RunArtifacts) WriteFlight(f *FlightRecorder) error {
	if f == nil {
		return nil
	}
	return a.atomicWrite(FileFlight, f.WriteJSON)
}

// failureJSON is the JSON shape of one quarantined case; the error is
// flattened to a string (error values do not marshal usefully).
type failureJSON struct {
	Index    int      `json:"index"`
	Error    string   `json:"error"`
	Panicked bool     `json:"panicked,omitempty"`
	TimedOut bool     `json:"timed_out,omitempty"`
	Attempts []string `json:"attempts,omitempty"`
}

// reportJSON is the JSON shape of one experiment's failure report.
type reportJSON struct {
	Total       int           `json:"total"`
	WorkersLost int           `json:"workers_lost,omitempty"`
	Failures    []failureJSON `json:"failures"`
}

// WriteFailures records the failure reports of the run's sweeps as
// failures.json, keyed by experiment label, with each sweep's case count,
// clean or not. A nil report (a run with no sweep report) records total 0.
func (a *RunArtifacts) WriteFailures(reports map[string]*sweep.FailureReport) error {
	out := make(map[string]reportJSON, len(reports))
	for label, r := range reports {
		rj := reportJSON{Failures: []failureJSON{}}
		if r != nil {
			rj.Total, rj.WorkersLost = r.Total, r.WorkersLost
			for _, f := range r.Failures {
				rj.Failures = append(rj.Failures, failureJSON{
					Index: f.Index, Error: f.Err.Error(),
					Panicked: f.Panicked, TimedOut: f.TimedOut, Attempts: f.Attempts,
				})
			}
		}
		out[label] = rj
	}
	return a.writeJSON(FileFailures, out)
}
