package device

import "fmt"

// Corner describes a process/voltage/temperature corner as multiplicative
// and additive adjustments to the nominal technology. Characterizing a
// library per corner and timing against the slow corner for setup (late)
// and the fast corner for hold (early) is standard sign-off practice.
type Corner struct {
	Name string
	// KScale multiplies both polarities' drive factors (process +
	// temperature mobility effects).
	KScale float64
	// VthShift is added to both threshold magnitudes (V).
	VthShift float64
	// VddScale multiplies the supply.
	VddScale float64
}

// Standard corners for the built-in technology. The numbers follow the
// usual ±10% supply, ±25 mV threshold, ∓15–20% drive spreads of a 130 nm
// process.
var (
	TypicalCorner = Corner{Name: "tt", KScale: 1.00, VthShift: 0.000, VddScale: 1.00}
	SlowCorner    = Corner{Name: "ss", KScale: 0.80, VthShift: +0.025, VddScale: 0.90}
	FastCorner    = Corner{Name: "ff", KScale: 1.20, VthShift: -0.025, VddScale: 1.10}
)

// AtCorner returns the technology adjusted to the given corner. The
// returned Tech is independent of the receiver. It is public API: the
// facade's Corner type documents it as the way to apply a corner.
func (t Tech) AtCorner(c Corner) Tech {
	out := t
	out.Name = fmt.Sprintf("%s_%s", t.Name, c.Name)
	if c.KScale != 0 {
		out.NMOS.K *= c.KScale
		out.PMOS.K *= c.KScale
	}
	out.NMOS.Vth += c.VthShift
	out.PMOS.Vth += c.VthShift
	if c.VddScale != 0 {
		out.Vdd *= c.VddScale
	}
	return out
}
