package core

// Health classifies how a sweep case reached its result, from fully
// trustworthy to excluded. The experiment drivers attach it to every case
// record and compute statistics over healthy cases only, reporting the
// exclusion count explicitly. A case that failed entirely has no record:
// it survives only as a sweep.CaseFailure in the failure report.
type Health int

const (
	// HealthOK: the golden transient and every replay converged without
	// recovery; the case is fully trustworthy.
	HealthOK Health = iota
	// HealthRecovered: at least one transient needed the spice recovery
	// ladder (gmin ramp or BE fallback) but completed; the case scores
	// normally and the recovery is recorded for diagnostics.
	HealthRecovered
	// HealthDegraded: the golden transient was unrecoverable, so the case
	// fell back to the P2 Γeff path over the salvaged waveform prefix. It
	// carries an estimated arrival but no reference truth, and is excluded
	// from error statistics.
	HealthDegraded
)

// String names the status for reports.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthRecovered:
		return "recovered"
	case HealthDegraded:
		return "degraded"
	}
	return "unknown"
}

// Healthy reports whether the case's numbers are backed by a converged
// golden reference and may enter error statistics.
func (h Health) Healthy() bool { return h == HealthOK || h == HealthRecovered }
