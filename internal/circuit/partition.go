package circuit

import "noisewave/internal/device"

// Partition splits a circuit's elements by how their MNA stamps depend on
// the Newton iterate. Linear elements — resistors, capacitors (their
// companion models), voltage sources — stamp values that are constant for a
// fixed (StampMode, integration coefficients, time), so the solver can
// assemble them once per solve into a baseline and copy it back each
// iteration. The MOSFETs — the only nonlinear elements — must be restamped
// at every iterate.
//
// For them the partition precomputes the stamp slots: the six flat A-matrix
// indices and two B indices the device writes (rows from/to × columns G, D,
// S, with the ground exclusions already applied), so the per-iteration
// restamp writes through cached positions instead of generic Add(i, j, ·)
// calls and allocates nothing. The arithmetic mirrors MOSFET.Stamp exactly;
// the slow path keeps using MOSFET.Stamp itself. Each slot also memoizes its
// device's power pair (device.PowMemo): about a third of the evaluations in
// a transient repeat the device's previous gate overdrive bit for bit.
//
// The capacitors and voltage sources are listed once more by type, in
// element order, so the per-step companion updates and the right-hand-side
// rebuild run as flat loops instead of dispatching per element.
type Partition struct {
	// Linear elements' stamps do not depend on the iterate X.
	Linear []Element

	mos  []mosSlots
	caps []*Capacitor
	srcs []*VSource
	pow  device.PowCounts
}

// mosSlots caches one MOSFET's stamp positions. Index −1 marks an entry
// dropped by a ground exclusion (and, for xd/xg/xs, a grounded terminal
// whose voltage is 0).
type mosSlots struct {
	m    *MOSFET
	memo device.PowMemo

	xd, xg, xs int // iterate indices of the D/G/S voltages

	// Flat A.Data indices of the Jacobian entries: row `from` and row `to`
	// (drain/source per polarity) × columns G, D, S.
	fg, fd, fs int
	tg, td, ts int

	bf, bt int // B indices of the from/to rows
}

// NewPartition classifies the circuit's elements and caches the MOSFET
// stamp slots. The circuit's node space and element list must be final:
// elements added afterwards are invisible to the partition.
func NewPartition(c *Circuit) *Partition {
	p := &Partition{}
	cols := c.Size()
	xIdx := func(n NodeID) int {
		if n == Ground {
			return -1
		}
		return int(n)
	}
	slot := func(r, col NodeID) int {
		if r == Ground || col == Ground {
			return -1
		}
		return int(r)*cols + int(col)
	}
	for _, e := range c.Elements() {
		switch el := e.(type) {
		case *Resistor:
			p.Linear = append(p.Linear, e)
		case *Capacitor:
			p.Linear = append(p.Linear, e)
			p.caps = append(p.caps, el)
		case *VSource:
			p.Linear = append(p.Linear, e)
			p.srcs = append(p.srcs, el)
		case *MOSFET:
			from, to := el.D, el.S
			if el.Polarity == PType {
				from, to = el.S, el.D
			}
			p.mos = append(p.mos, mosSlots{
				m:  el,
				xd: xIdx(el.D), xg: xIdx(el.G), xs: xIdx(el.S),
				fg: slot(from, el.G), fd: slot(from, el.D), fs: slot(from, el.S),
				tg: slot(to, el.G), td: slot(to, el.D), ts: slot(to, el.S),
				bf: xIdx(from), bt: xIdx(to),
			})
		}
	}
	return p
}

// AppendSlotIndices appends the flat A-matrix indices every slot-cached
// device can write, so the solver can treat them as structurally nonzero
// even when a particular iterate stamps an exact zero there.
func (p *Partition) AppendSlotIndices(dst []int) []int {
	for i := range p.mos {
		ms := &p.mos[i]
		for _, idx := range [...]int{ms.fg, ms.fd, ms.fs, ms.tg, ms.td, ms.ts} {
			if idx >= 0 {
				dst = append(dst, idx)
			}
		}
	}
	return dst
}

// AppendRHSIndices appends the B-vector indices every slot-cached device
// can write, the right-hand-side counterpart of AppendSlotIndices.
func (p *Partition) AppendRHSIndices(dst []int32) []int32 {
	for i := range p.mos {
		ms := &p.mos[i]
		if ms.bf >= 0 {
			dst = append(dst, int32(ms.bf))
		}
		if ms.bt >= 0 {
			dst = append(dst, int32(ms.bt))
		}
	}
	return dst
}

// StampLinear stamps every iterate-independent element.
func (p *Partition) StampLinear(a *Assembler, mode StampMode) {
	for _, e := range p.Linear {
		e.Stamp(a, mode)
	}
}

// StampLinearRHS stamps only the B-vector contributions of the linear
// elements, so a solver that already holds the linear A entries for this
// stamp configuration can rebuild the baseline right-hand side alone — time
// and companion history live entirely in B; the linear A part depends only
// on (mode, integration coefficients, gmin). Capacitors write node rows and
// sources write their own branch rows, so stamping the capacitors in
// element order and then the sources accumulates every entry in the same
// order as StampLinear: the result is bitwise identical to the B produced
// by a full StampLinear from the same starting B.
func (p *Partition) StampLinearRHS(a *Assembler, mode StampMode) {
	if mode == Transient {
		for _, cp := range p.caps {
			if cp.C != 0 {
				cp.stampRHS(a)
			}
		}
	}
	for _, v := range p.srcs {
		a.B[a.BranchIndex(v.Branch)] += v.Value.At(a.Time)
	}
}

// Sources returns the circuit's voltage sources in element order (not a
// copy).
func (p *Partition) Sources() []*VSource { return p.srcs }

// InitState starts every capacitor from the DC solution in a.X.
func (p *Partition) InitState(a *Assembler) {
	for _, cp := range p.caps {
		cp.initState(a)
	}
}

// BeginStep sets every capacitor's companion model for the step about to
// be solved.
func (p *Partition) BeginStep(ic IntegrationCoeffs) {
	for _, cp := range p.caps {
		cp.beginStep(ic)
	}
}

// EndStep records every capacitor's accepted voltage and current.
func (p *Partition) EndStep(a *Assembler) {
	for _, cp := range p.caps {
		cp.endStep(a)
	}
}

// ResetMemo empties every device's power memo, so the memo hits of a run
// do not depend on which run the partition served before.
func (p *Partition) ResetMemo() {
	for i := range p.mos {
		p.mos[i].memo = device.PowMemo{}
	}
}

// TakePowCounts returns the power pairs evaluated and served from the memo
// since the previous call, and resets both counts.
func (p *Partition) TakePowCounts() (evals, hits int64) {
	c := p.pow
	p.pow = device.PowCounts{}
	return c.Evals, c.Hits
}

// State is a copy of a partition's run state at an accepted step: every
// capacitor's accepted current and every device's power memo. The
// capacitors' accepted voltages are not stored — they are the branch
// voltages of the accepted iterate, which LoadState recomputes — and
// neither are the companion conductances, which BeginStep sets before
// each solve.
type State struct {
	capI []float64
	memo []device.PowMemo
}

// SaveState returns a copy of the run state.
func (p *Partition) SaveState() State {
	st := State{capI: make([]float64, len(p.caps)), memo: make([]device.PowMemo, len(p.mos))}
	for i, cp := range p.caps {
		st.capI[i] = cp.iPrev
	}
	for i := range p.mos {
		st.memo[i] = p.mos[i].memo
	}
	return st
}

// LoadState restores a run state SaveState took on this partition, with
// a.X holding the iterate of the step it was saved at.
func (p *Partition) LoadState(st *State, a *Assembler) {
	for i, cp := range p.caps {
		cp.vPrev, cp.iPrev = a.V(cp.P)-a.V(cp.N), st.capI[i]
	}
	for i := range p.mos {
		p.mos[i].memo = st.memo[i]
	}
}

// StampNonlinear stamps every MOSFET at the current iterate through its
// cached slots. The stamp is the same in every StampMode.
func (p *Partition) StampNonlinear(a *Assembler) {
	ad := a.A.Data
	b := a.B
	x := a.X
	for i := range p.mos {
		ms := &p.mos[i]
		m := ms.m
		var vd, vg, vs float64
		if ms.xd >= 0 {
			vd = x[ms.xd]
		}
		if ms.xg >= 0 {
			vg = x[ms.xg]
		}
		if ms.xs >= 0 {
			vs = x[ms.xs]
		}
		// Same linearization as MOSFET.Stamp: g0 = ∂I/∂vg, g1 = ∂I/∂vd,
		// g2 = ∂I/∂vs for the current I flowing from `from` to `to`.
		var i0, g0, g1, g2 float64
		if m.Polarity == NType {
			id, dgs, dds := m.Params.IDSMemo(vg-vs, vd-vs, &ms.memo, &p.pow)
			i0 = m.W * id
			g0 = m.W * dgs
			g1 = m.W * dds
			g2 = -m.W * (dgs + dds)
		} else {
			id, dgs, dds := m.Params.IDSMemo(vs-vg, vs-vd, &ms.memo, &p.pow)
			i0 = m.W * id
			g0 = -m.W * dgs
			g1 = -m.W * dds
			g2 = m.W * (dgs + dds)
		}
		// ieq accumulates in the same dependency order (G, D, S) as
		// StampNonlinearCurrent so the fast and slow stamps agree bitwise.
		ieq := i0
		ieq -= g0 * vg
		ieq -= g1 * vd
		ieq -= g2 * vs
		if ms.fg >= 0 {
			ad[ms.fg] += g0
		}
		if ms.fd >= 0 {
			ad[ms.fd] += g1
		}
		if ms.fs >= 0 {
			ad[ms.fs] += g2
		}
		if ms.tg >= 0 {
			ad[ms.tg] -= g0
		}
		if ms.td >= 0 {
			ad[ms.td] -= g1
		}
		if ms.ts >= 0 {
			ad[ms.ts] -= g2
		}
		if ms.bf >= 0 {
			b[ms.bf] -= ieq
		}
		if ms.bt >= 0 {
			b[ms.bt] += ieq
		}
	}
}
