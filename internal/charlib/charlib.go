// Package charlib is the cell characterization engine: it sweeps input
// slew × output load across the transistor-level cells of internal/device,
// measures delay and output transition with the internal simulator, and
// emits a conventional NLDM library (internal/liberty) — the "current level
// of gate characterization in conventional ASIC cell libraries" that the
// paper's techniques are designed to be compatible with.
//
// Optionally the engine also stores the simulated output waveform at every
// grid point (a CCS-style extension); the noise-aware STA mode uses those
// shapes as the noiseless sensitivity reference.
package charlib

import (
	"context"
	"fmt"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/liberty"
	"noisewave/internal/spice"
	"noisewave/internal/wave"
)

// Options configures a characterization run.
type Options struct {
	// Slews are the 10–90% input transition times of the table's index_1.
	Slews []float64
	// Loads are the output capacitive loads of index_2.
	Loads []float64
	// Step is the simulator timestep (default 1 ps).
	Step float64
	// WithWaves stores the output waveform at every grid point.
	WithWaves bool
}

// DefaultOptions returns a production-quality 6×7 grid.
func DefaultOptions() Options {
	return Options{
		Slews: []float64{20e-12, 50e-12, 100e-12, 200e-12, 400e-12, 800e-12},
		Loads: []float64{1e-15, 2e-15, 4e-15, 8e-15, 16e-15, 32e-15, 64e-15},
		Step:  1e-12,
	}
}

// FastOptions returns a coarse 3×3 grid for tests.
func FastOptions() Options {
	return Options{
		Slews: []float64{50e-12, 150e-12, 400e-12},
		Loads: []float64{2e-15, 8e-15, 32e-15},
		Step:  2e-12,
	}
}

// StandardCells returns the cell set of the paper's testbench technology:
// inverters at ×1/×4/×16/×64 plus NAND2, NOR2 and BUF at ×1 and ×4.
func StandardCells(t device.Tech) []device.Cell {
	return []device.Cell{
		device.Inverter(t, 1), device.Inverter(t, 4),
		device.Inverter(t, 16), device.Inverter(t, 64),
		device.NAND2(t, 1), device.NAND2(t, 4),
		device.NOR2(t, 1), device.NOR2(t, 4),
		device.AOI21(t, 1), device.OAI21(t, 1),
		device.Buffer(t, 4),
	}
}

// Characterize builds a library for the given cells.
func Characterize(t device.Tech, cells []device.Cell, opts Options) (*liberty.Library, error) {
	if len(opts.Slews) == 0 || len(opts.Loads) == 0 {
		return nil, fmt.Errorf("charlib: empty slew/load grid")
	}
	if opts.Step == 0 {
		opts.Step = 1e-12
	}
	lib := liberty.NewLibrary(t.Name, t.Vdd)
	for _, c := range cells {
		cell, err := characterizeCell(t, c, opts)
		if err != nil {
			return nil, fmt.Errorf("charlib: %s: %w", c.Name, err)
		}
		lib.AddCell(cell)
	}
	return lib, nil
}

// inputNames returns the logical input pin names of a cell kind.
func inputNames(k device.CellKind) []string {
	switch k {
	case device.Nand2, device.Nor2:
		return []string{"A", "B"}
	case device.Aoi21, device.Oai21:
		return []string{"A", "B", "C"}
	default:
		return []string{"A"}
	}
}

// sideLevel returns the sensitizing static level (as a fraction of Vdd) for
// a non-switching input while `switching` toggles: the side values must
// make the output controlled by the switching pin alone.
func sideLevel(k device.CellKind, switching, side string) float64 {
	switch k {
	case device.Nand2:
		return 1 // non-controlling high
	case device.Nor2:
		return 0 // non-controlling low
	case device.Aoi21:
		// Y = !(A·B + C).
		if switching == "C" {
			// Kill the AND term: A low.
			if side == "A" {
				return 0
			}
			return 1
		}
		// Switching A or B: the other AND input high, C low.
		if side == "C" {
			return 0
		}
		return 1
	case device.Oai21:
		// Y = !((A + B)·C).
		if switching == "C" {
			// Keep the OR term true via A, B low.
			if side == "A" {
				return 1
			}
			return 0
		}
		// Switching A or B: the other OR input low, C high.
		if side == "C" {
			return 1
		}
		return 0
	default:
		return 1
	}
}

func characterizeCell(t device.Tech, c device.Cell, opts Options) (*liberty.Cell, error) {
	ins := inputNames(c.Kind)
	out := &liberty.Cell{
		Name: c.Name,
		Area: c.Drive,
	}
	for _, in := range ins {
		out.Pins = append(out.Pins, liberty.Pin{
			Name: in, Direction: "input", Cap: c.InputCap(),
		})
	}
	out.Pins = append(out.Pins, liberty.Pin{Name: "Y", Direction: "output"})

	sense := liberty.NegativeUnate
	if c.Kind == device.Buf {
		sense = liberty.PositiveUnate
	}

	for _, in := range ins {
		arc := liberty.Arc{From: in, To: "Y", Sense: sense}
		shape := newShapeTable(opts)
		for _, outEdge := range []wave.Edge{wave.Rising, wave.Falling} {
			inEdge := outEdge
			if sense == liberty.NegativeUnate {
				inEdge = outEdge.Opposite()
			}
			delayTbl, transTbl := newTable(opts), newTable(opts)
			for i, slew := range opts.Slews {
				for j, load := range opts.Loads {
					m, err := measure(t, c, in, inEdge, slew, load, opts)
					if err != nil {
						return nil, fmt.Errorf("arc %s %v slew=%g load=%g: %w", in, outEdge, slew, load, err)
					}
					delayTbl.Values[i][j] = m.delay
					transTbl.Values[i][j] = m.outTrans
					if opts.WithWaves {
						shape.put(outEdge, i, j, m.outWave)
					}
				}
			}
			if outEdge == wave.Rising {
				arc.CellRise, arc.RiseTransition = delayTbl, transTbl
			} else {
				arc.CellFall, arc.FallTransition = delayTbl, transTbl
			}
		}
		if opts.WithWaves && out.Waves == nil {
			out.Waves = shape.tables()
		}
		out.Arcs = append(out.Arcs, arc)
	}
	return out, nil
}

func newTable(opts Options) *liberty.Table2D {
	t := &liberty.Table2D{
		Index1: append([]float64(nil), opts.Slews...),
		Index2: append([]float64(nil), opts.Loads...),
		Values: make([][]float64, len(opts.Slews)),
	}
	for i := range t.Values {
		t.Values[i] = make([]float64, len(opts.Loads))
	}
	return t
}

type shapeTable struct {
	opts  Options
	waves map[wave.Edge][][]*wave.Waveform
}

func newShapeTable(opts Options) *shapeTable {
	s := &shapeTable{opts: opts, waves: make(map[wave.Edge][][]*wave.Waveform)}
	for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
		rows := make([][]*wave.Waveform, len(opts.Slews))
		for i := range rows {
			rows[i] = make([]*wave.Waveform, len(opts.Loads))
		}
		s.waves[e] = rows
	}
	return s
}

func (s *shapeTable) put(e wave.Edge, i, j int, w *wave.Waveform) { s.waves[e][i][j] = w }

func (s *shapeTable) tables() map[wave.Edge]*liberty.WaveTable {
	out := make(map[wave.Edge]*liberty.WaveTable, 2)
	for e, rows := range s.waves {
		out[e] = &liberty.WaveTable{
			Index1: append([]float64(nil), s.opts.Slews...),
			Index2: append([]float64(nil), s.opts.Loads...),
			Waves:  rows,
		}
	}
	return out
}

type measurement struct {
	delay    float64
	outTrans float64
	outWave  *wave.Waveform // time base shifted so 0 = input 50% crossing
}

// measure runs one characterization point: the cell with one switching
// input (others held at their non-controlling level), a pure capacitive
// load, and a saturated-ramp input of the given slew.
func measure(t device.Tech, c device.Cell, switching string, inEdge wave.Edge, slew, load float64, opts Options) (measurement, error) {
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(t.Vdd))
	outN := ckt.Node("y")
	ckt.AddCapacitor(outN, circuit.Ground, load)

	const t0 = 0.2e-9
	ins := inputNames(c.Kind)
	pins := circuit.CellPins{Out: outN, Vdd: vdd}
	for _, name := range ins {
		n := ckt.Node("in_" + name)
		pins.Inputs = append(pins.Inputs, n)
		if name == switching {
			ckt.AddVSource("v_"+name, n, circuit.Ground, circuit.SlewRamp(t0, slew, t.Vdd, inEdge))
			continue
		}
		level := sideLevel(c.Kind, switching, name) * t.Vdd
		ckt.AddVSource("v_"+name, n, circuit.Ground, circuit.DCSource(level))
	}
	if err := ckt.AddCell("dut", c, pins); err != nil {
		return measurement{}, err
	}

	stop := t0 + slew/0.8 + 1.5e-9
	sim := spice.New(ckt, spice.Options{Step: opts.Step, Probes: []string{"in_" + switching, "y"}})
	res, err := sim.Run(context.TODO(), 0, stop)
	if err != nil {
		return measurement{}, err
	}
	wIn, err := res.Waveform("in_" + switching)
	if err != nil {
		return measurement{}, err
	}
	wOut, err := res.Waveform("y")
	if err != nil {
		return measurement{}, err
	}
	half := 0.5 * t.Vdd
	tIn, err := wIn.LastCrossing(half)
	if err != nil {
		return measurement{}, fmt.Errorf("input never crosses 50%%: %w", err)
	}
	tOut, err := wOut.LastCrossing(half)
	if err != nil {
		return measurement{}, fmt.Errorf("output never crosses 50%%: %w", err)
	}
	outTrans, err := wOut.Slew(t.Vdd, wOut.EdgeDir())
	if err != nil {
		return measurement{}, fmt.Errorf("output transition: %w", err)
	}
	m := measurement{delay: tOut - tIn, outTrans: outTrans}
	if opts.WithWaves {
		m.outWave = wOut.Shifted(-tIn)
	}
	return m, nil
}
