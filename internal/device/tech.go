// Package device provides the transistor and cell models used by the
// transient simulator: an alpha-power-law (Sakurai–Newton) MOSFET model and
// CMOS inverter cells at the drive strengths of the paper's testbench
// (×1, ×4, ×16, ×64).
//
// The paper characterizes against a TSMC 0.13 µm industrial library, which
// is proprietary; this package substitutes a physically-motivated 130 nm
// technology (Vdd = 1.2 V, velocity-saturated alpha ≈ 1.3) whose inverters
// exhibit the same qualitative switching behaviour. See DESIGN.md §2.
package device

import "math"

// MOSParams describes one device polarity of the alpha-power-law model.
// All width-dependent quantities scale linearly with the channel width
// multiplier W used when instantiating a transistor.
type MOSParams struct {
	Vth    float64 // threshold voltage magnitude (V)
	Alpha  float64 // velocity-saturation index (2.0 = long channel)
	K      float64 // drive factor: Idsat = K·W·(Vgs−Vth)^Alpha (A at W=1)
	Kv     float64 // saturation voltage factor: Vdsat = Kv·(Vgs−Vth)^(Alpha/2)
	Lambda float64 // channel-length modulation (1/V)
}

// Tech bundles a full technology description.
type Tech struct {
	Name string
	Vdd  float64 // supply voltage (V)

	NMOS MOSParams
	PMOS MOSParams

	// PWRatio is the PMOS/NMOS width ratio used inside standard cells to
	// balance rise and fall drive.
	PWRatio float64

	// Per-unit-width parasitics for cell construction (F at W=1).
	CGate    float64 // total gate capacitance per unit NMOS width (incl. matched PMOS)
	CDrain   float64 // drain junction capacitance at the cell output per unit width
	CGateOvl float64 // gate-drain overlap (Miller) capacitance per unit width
}

// Default130 returns the built-in 130 nm-class technology. Values are
// calibrated so a ×1 inverter sources ≈0.58 mA at full gate drive and
// presents ≈2 fF of input capacitance, giving FO4-style delays around
// 40–50 ps — consistent with the 0.13 µm library the paper used, and
// strong enough that a ×1 driver holds a 1000 µm victim line against
// 100 fF-per-aggressor coupling in the regime Table 1's error magnitudes
// imply (see DESIGN.md §2).
func Default130() Tech {
	return Tech{
		Name: "generic130",
		Vdd:  1.2,
		NMOS: MOSParams{
			Vth:    0.32,
			Alpha:  1.30,
			K:      6.8e-4,
			Kv:     0.55,
			Lambda: 0.06,
		},
		PMOS: MOSParams{
			Vth:    0.30,
			Alpha:  1.35,
			K:      3.4e-4,
			Kv:     0.60,
			Lambda: 0.08,
		},
		PWRatio:  2.0,
		CGate:    2.0e-15,
		CDrain:   1.6e-15,
		CGateOvl: 0.25e-15,
	}
}

// IDS evaluates the alpha-power-law drain current and its partial
// derivatives for an N-type device with the given gate-source and
// drain-source voltages (source is the lower-potential terminal for normal
// operation). Drain-source reversal (vds < 0) is handled by terminal
// exchange so the model remains well defined during transients.
//
// The returned current is in amperes for a unit-width device; scale by the
// width multiplier externally.
func (p MOSParams) IDS(vgs, vds float64) (id, dIdVgs, dIdVds float64) {
	return p.ids(vgs, vds, nil, nil)
}

// PowMemo is a one-entry memo of one device's power pair (see
// powAlphaPair), keyed on the exact gate overdrive it was evaluated at.
// The zero value is empty: the pair is only ever evaluated for a positive
// overdrive, so a zero key never matches.
type PowMemo struct {
	vgt     float64
	pw, pwh powResult
}

// PowCounts counts the power pairs a set of memoized devices needed:
// Evals were computed, Hits were served from a memo.
type PowCounts struct {
	Evals, Hits int64
}

// IDSMemo is IDS for a device whose power pair is memoized in m: when the
// gate overdrive repeats the previous evaluation's bit for bit, the pair is
// taken from m instead of recomputed, and c counts which. The results are
// bit-identical to IDS.
func (p MOSParams) IDSMemo(vgs, vds float64, m *PowMemo, c *PowCounts) (id, dIdVgs, dIdVds float64) {
	return p.ids(vgs, vds, m, c)
}

// ids is IDS with an optional power memo (nil for the plain evaluation).
func (p MOSParams) ids(vgs, vds float64, m *PowMemo, c *PowCounts) (id, dIdVgs, dIdVds float64) {
	if vds < 0 {
		// Exchange source and drain: Id(vgs, vds) = −Id(vgs − vds, −vds).
		// With u = vgs − vds, w = −vds:
		//   ∂Id/∂vgs = −∂Id'/∂u
		//   ∂Id/∂vds = +∂Id'/∂u + ∂Id'/∂w
		idr, dgu, dgw := p.ids(vgs-vds, -vds, m, c)
		return -idr, -dgu, dgu + dgw
	}
	vgt := vgs - p.Vth
	if vgt <= 0 {
		return 0, 0, 0
	}
	// Saturation current and voltage. The two powers vgt^α and vgt^(α/2)
	// share one logarithm; see powAlphaPair.
	var pw, pwh powResult
	switch {
	case m == nil:
		pw, pwh = powAlphaPair(vgt, p.Alpha)
	case m.vgt == vgt:
		pw, pwh = m.pw, m.pwh
		c.Hits++
	default:
		pw, pwh = powAlphaPair(vgt, p.Alpha)
		*m = PowMemo{vgt: vgt, pw: pw, pwh: pwh}
		c.Evals++
	}
	idsat0 := p.K * pw.val    // K·vgt^α
	dIdsat0 := p.K * pw.deriv // α·K·vgt^(α−1)
	vdsat := p.Kv * pwh.val
	dVdsat := p.Kv * pwh.deriv
	clm := 1 + p.Lambda*vds

	if vds >= vdsat {
		id = idsat0 * clm
		dIdVgs = dIdsat0 * clm
		dIdVds = idsat0 * p.Lambda
		return id, dIdVgs, dIdVds
	}
	// Triode: quadratic blend that meets the saturation branch with value
	// continuity at vds = vdsat.
	u := vds / vdsat
	f := u * (2 - u)
	dfdu := 2 - 2*u
	id = idsat0 * clm * f
	// ∂/∂vgs: product rule; u depends on vgs through vdsat.
	dudVgs := -vds / (vdsat * vdsat) * dVdsat
	dIdVgs = dIdsat0*clm*f + idsat0*clm*dfdu*dudVgs
	dudVds := 1 / vdsat
	dIdVds = idsat0*p.Lambda*f + idsat0*clm*dfdu*dudVds
	return id, dIdVgs, dIdVds
}

type powResult struct{ val, deriv float64 }

// powAlphaPair returns x^a and x^(a/2), each with its derivative, for
// x > 0, evaluated as exp(a·log x) from a single logarithm. This is the
// dominant cost of the device model (two powers per linearization, several
// hundred thousand per transient), and sharing the log plus skipping
// math.Pow's extended-precision argument reduction roughly halves it. The
// results agree with math.Pow to within a few ulp, far inside the model's
// physical accuracy.
func powAlphaPair(x, a float64) (powResult, powResult) {
	al := a * math.Log(x)
	v := math.Exp(al)
	vh := math.Exp(0.5 * al)
	return powResult{val: v, deriv: a * v / x},
		powResult{val: vh, deriv: 0.5 * a * vh / x}
}
