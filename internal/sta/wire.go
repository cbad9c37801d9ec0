package sta

import "math"

// WireModel selects how net (interconnect) delay is treated during
// propagation.
type WireModel int

const (
	// IdealWire treats every net as a zero-delay node: the driver output
	// waveform appears unchanged at every receiver (the default, and the
	// assumption behind pure NLDM timing).
	IdealWire WireModel = iota
	// ElmoreWire adds a per-net RC delay and slew degradation computed
	// from the net's annotated wire resistance and capacitance, with
	// Ceff = Cw/2 + ΣCpins (half the distributed wire cap plus the summed
	// receiver pin caps of the net): delay = ln2 · R · Ceff, slew' =
	// sqrt(slew² + (2.2·R·Ceff)²) — the classical dominant-pole estimates.
	// Both the forward arrival pass and the backward required-time pass
	// apply the same transform, so slack stays constant along a path.
	ElmoreWire
)

// wireDelay returns the Elmore 50% delay and the degraded transition for a
// net with wire resistance r, wire capacitance cw, summed receiver pin
// capacitance pins (ΣCpins over every input pin the net drives — a single
// receiver's cap under-estimates the delay on multi-fanout nets) and
// incoming transition trans. Both use Ceff = cw/2 + pins: delay =
// ln2·r·Ceff; the slew degrades by the RC 10–90 time ≈ 2.2·r·Ceff composed
// with the incoming transition in quadrature (PERI-style).
func wireDelay(r, cw, pins, trans float64) (delay, outTrans float64) {
	if r <= 0 || cw+pins <= 0 {
		return 0, trans
	}
	ceff := cw/2 + pins
	delay = math.Ln2 * r * ceff
	rcSlew := 2.2 * r * ceff
	outTrans = math.Sqrt(trans*trans + rcSlew*rcSlew)
	return delay, outTrans
}
