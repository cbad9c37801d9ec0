package spice

import (
	"fmt"

	"noisewave/internal/wave"
)

// stepTrace describes one accepted transient step: where it landed, its
// size, the integration method actually used, whether it ended on a source
// breakpoint, and how many attempts were rejected (Newton failure or LTE)
// before acceptance.
type stepTrace struct {
	T, H    float64
	Method  method
	HitBP   bool
	Rejects int
}

// Result holds recorded node voltages over time.
type Result struct {
	Time []float64
	// Recovery reports what the transient recovery ladder did during the
	// run (step cuts, gmin ramps, BE fallbacks, budget usage). A zero
	// report means the run never needed recovery.
	Recovery RecoveryReport

	trace []stepTrace // per-step diagnostics under Options.recordSteps
	names []string
	index map[string]int
	v     [][]float64 // v[probe][step]
}

func newResult(names []string) *Result {
	r := &Result{
		names: names,
		index: make(map[string]int, len(names)),
		v:     make([][]float64, len(names)),
	}
	for i, n := range names {
		r.index[n] = i
	}
	return r
}

// Steps returns the number of recorded timepoints.
func (r *Result) Steps() int { return len(r.Time) }

// Voltage returns the voltage samples of a node.
func (r *Result) Voltage(node string) ([]float64, error) {
	i, ok := r.index[node]
	if !ok {
		return nil, fmt.Errorf("spice: node %q was not probed (have %v)", node, r.names)
	}
	return r.v[i], nil
}

// Waveform returns the recorded node voltage as a waveform. Samples are
// validated first: a NaN/Inf voltage — the signature of a diverged solve
// that escaped rejection, or of a probe that never resolved to a node —
// returns an error wrapping wave.ErrBadSamples naming the node and
// timepoint, instead of leaking into downstream crossing queries as a
// silent anomaly.
func (r *Result) Waveform(node string) (*wave.Waveform, error) {
	v, err := r.Voltage(node)
	if err != nil {
		return nil, err
	}
	if i := nonFiniteAt(v); i >= 0 {
		return nil, fmt.Errorf("spice: node %q: non-finite sample v=%g at t=%.6g: %w",
			node, v[i], r.Time[i], wave.ErrBadSamples)
	}
	return wave.New(append([]float64(nil), r.Time...), append([]float64(nil), v...))
}

// reset clears the recorded samples and diagnostics keeping the storage,
// so a simulator recycles the buffers across runs instead of reallocating
// them per case.
func (r *Result) reset() {
	r.Time = r.Time[:0]
	r.trace = r.trace[:0]
	r.Recovery = RecoveryReport{}
	for i := range r.v {
		r.v[i] = r.v[i][:0]
	}
}
