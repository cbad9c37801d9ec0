package spice

// Micro-benchmarks of the solver hot paths, pinning the fast path's two
// claims: partitioned assembly beats the full per-iteration restamp, and
// the steady-state transient loop allocates nothing per step (allocs/op
// amortizes to 0 — the sample buffers grow on the first window and are
// recycled afterwards). Run via `make bench-micro`.

import (
	"context"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
)

// benchCircuit is the standard receiver shape of the experiments: a ×1
// driver into a ×4 / ×16 inverter chain, input held mid-transition so the
// transistors stamp in their nonlinear region.
func benchCircuit() *circuit.Circuit {
	tech := device.Default130()
	ckt := circuit.New()
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	out := ckt.Node("out")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vin", in, circuit.Ground, circuit.DCSource(0.6))
	ckt.AddInverter("u1", tech, 1, in, mid, vdd)
	ckt.AddInverter("u2", tech, 4, mid, out, vdd)
	ckt.AddInverter("u3", tech, 16, out, ckt.Node("out2"), vdd)
	return ckt
}

// benchSim returns a simulator with a solved operating point and the
// dynamic elements initialized for a trapezoidal step of size h.
func benchSim(b *testing.B, fast bool, h float64) *Simulator {
	b.Helper()
	s := New(benchCircuit(), Options{Step: h, ReuseResult: true})
	s.fast = fast
	if err := s.solveOP(0); err != nil {
		b.Fatal(err)
	}
	s.part.InitState(s.asm)
	ic := circuit.IntegrationCoeffs{Geq: 2 / h, HistI: -1}
	s.ic = ic
	s.part.BeginStep(ic)
	s.asm.Time = h
	return s
}

// BenchmarkAssemble compares the slow path's full per-iteration restamp
// against the fast path's baseline-restore + nonlinear-only restamp.
func BenchmarkAssemble(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		s := benchSim(b, false, 1e-12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.assemble(circuit.Transient)
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		s := benchSim(b, true, 1e-12)
		s.buildBaseline(circuit.Transient, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.asm.RestoreBaseline()
			s.part.StampNonlinear(s.asm)
		}
	})
}

// BenchmarkNewtonIteration measures one transient Newton solve from an
// already-converged iterate — the steady-state shape of a transient's
// solves — through both solver paths.
func BenchmarkNewtonIteration(b *testing.B) {
	for _, bc := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"slow", false}} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchSim(b, bc.fast, 1e-12)
			if err := s.solve(circuit.Transient, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.solve(circuit.Transient, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransientStep drives the outer transient loop one accepted step
// per iteration, recycling the run state window after window exactly as a
// sweep worker's simulator does. The fast-path variant must report
// 0 allocs/op: the per-step hot path may not allocate.
func BenchmarkTransientStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"slow", false}} {
		b.Run(bc.name, func(b *testing.B) {
			const stop = 1e-9
			s := New(benchCircuit(), Options{Step: 1e-12, ReuseResult: true})
			s.fast = bc.fast
			if err := s.solveOP(0); err != nil {
				b.Fatal(err)
			}
			s.part.InitState(s.asm)
			res := s.newRunResult()
			rec := &res.Recovery
			rec.Budget = s.opts.recoveryBudget
			s.recovery = rec
			defer func() { s.recovery = nil }()
			st := &s.tr
			resetWindow := func() {
				res.reset()
				rec.Budget = s.opts.recoveryBudget
				st.bps = s.breakpoints(st.bps[:0], 0, stop)
				st.stop = stop
				st.t = 0
				st.base = s.opts.Step
				st.beSteps = 2
				n := s.ckt.Size()
				st.xPrev = resized(st.xPrev, n)
				copy(st.xPrev, s.asm.X)
				st.xPrevPrev = resized(st.xPrevPrev, n)
				copy(st.xPrevPrev, s.asm.X)
				st.hPrev = 0
				st.nNodes = s.ckt.NumNodes()
				s.recordSample(res, 0)
			}
			ctx := context.Background()
			resetWindow()
			// Warm one full window so the sample buffers reach their final
			// capacity before measurement starts.
			for st.t < stop-1.5*s.opts.Step {
				if err := s.stepTransient(ctx, res, rec, st); err != nil {
					b.Fatal(err)
				}
			}
			resetWindow()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.t >= stop-1.5*s.opts.Step {
					resetWindow()
				}
				if err := s.stepTransient(ctx, res, rec, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
