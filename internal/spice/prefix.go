package spice

import (
	"context"
	"fmt"
	"math"

	"noisewave/internal/circuit"
	"noisewave/internal/linalg"
)

// The quiet prefix. Every Table 1 golden transient and every Γeff replay
// starts by solving the same DC point and stepping through the same quiet
// lead-in: until the first source leaves its value at the run's start,
// nothing distinguishes one case from the next. A simulator that reruns
// one circuit can record that lead-in once (RecordPrefix) and let each
// later run resume from the latest checkpoint it reproduces bit for bit.
//
// A checkpoint holds everything the rest of a run reads: the iterate and
// the previous one, the stepping state, every capacitor's history and
// every device's power memo (circuit.State), and the cached factorization
// with the modified-Newton bookkeeping around it. The baseline cache is
// not stored; a resumed run rebuilds it on its first solve, which yields
// the same matrix and right-hand side the cache would have held.

// prefixStride is the number of accepted steps between checkpoints. A run
// resumes at most prefixStride − 1 steps before the point it could have
// skipped to; at the paper's 1 ps step and a 0.3 ns horizon that keeps
// 19 checkpoints per simulator, under 0.1 MB for a Figure 1 testbench.
const prefixStride = 16

// prefix is a read-only record of a quiet lead-in: a transient from start
// in which every source holds its value at start.
type prefix struct {
	start, horizon float64
	held           []uint64 // bits of each source's value at start, in element order

	times  []float64   // t_0 = start and every accepted step up to the last checkpoint
	probes [][]float64 // probes[i][j]: probe i at times[j]
	cps    []checkpoint
}

// checkpoint is the simulator state after accepted step `step` (0 is the
// DC point).
type checkpoint struct {
	step            int
	t, base, hPrev  float64
	beSteps         int
	x, xPrevPrev    []float64
	part            circuit.State
	lu              *linalg.CachedLUState[luKey]
	moveSinceFactor float64
	rhoEst          float64
	spArmed         bool
}

// RecordPrefix records the simulator's quiet prefix: the DC point and
// checkpoints of the accepted steps of a transient from start in which
// every source holds its value at start, up to horizon. A later run that
// starts at start resumes from the latest checkpoint it reproduces bit for
// bit — every source takes its held value at start and at the end of each
// skipped step, and neither a source breakpoint nor the run's stop falls
// at or before the checkpoint — so its samples equal a run from scratch
// bit for bit. A run whose context is already done starts from scratch.
// The prefix is read-only once recorded; recording again replaces it.
//
// Runs under NoFastPath, a step trace or a fault injector never resume, so
// for them RecordPrefix records nothing. The recording is a transient of
// its own and is counted as one in telemetry. Elements other than the
// sources' Value must not change after recording.
func (s *Simulator) RecordPrefix(ctx context.Context, start, horizon float64) error {
	s.prefix = nil
	if !s.canResume() {
		return nil
	}
	if !(horizon > start) {
		return fmt.Errorf("spice: prefix horizon %g must be after its start %g", horizon, start)
	}
	srcs := s.part.Sources()
	p := &prefix{start: start, horizon: horizon, held: make([]uint64, len(srcs))}
	saved := make([]circuit.Source, len(srcs))
	for i, v := range srcs {
		saved[i] = v.Value
		val := v.Value.At(start)
		p.held[i] = math.Float64bits(val)
		v.Value = circuit.DCSource(val)
	}
	defer func() {
		for i, v := range srcs {
			v.Value = saved[i]
		}
	}()
	// Stop one step past the horizon, so no step that ends inside it is
	// trimmed to the stop.
	res, err := s.run(ctx, start, horizon+s.opts.Step, p)
	if err != nil {
		return fmt.Errorf("spice: recording quiet prefix: %w", err)
	}
	p.finish(res)
	s.prefix = p
	return nil
}

// canResume reports whether the simulator's runs may use a prefix: only
// the fast path is checkpointed, a step trace or a fault injector would
// see the skipped steps, and the test-only forced rejections would not.
func (s *Simulator) canResume() bool {
	return !s.opts.NoFastPath && !s.opts.recordSteps && s.opts.Inject == nil && s.testForceReject == nil
}

// extend is called at the DC point and after each accepted step of the
// recording; it checkpoints every prefixStride-th step and reports whether
// the recording goes on. It ends at the horizon and at the first step that
// needed a rejection or the recovery ladder: a run resuming past such a
// step would not account for it.
func (p *prefix) extend(s *Simulator, res *Result) bool {
	st := &s.tr
	if st.t > p.horizon || s.stats.rejects > 0 || s.stats.nonFinite > 0 ||
		s.stats.gminRamps > 0 || s.stats.beFallbacks > 0 {
		return false
	}
	step := len(res.Time) - 1
	if step%prefixStride != 0 {
		return true
	}
	cp := checkpoint{
		step: step,
		t:    st.t, base: st.base, hPrev: st.hPrev, beSteps: st.beSteps,
		x:               append([]float64(nil), s.asm.X...),
		xPrevPrev:       append([]float64(nil), st.xPrevPrev...),
		part:            s.part.SaveState(),
		moveSinceFactor: s.moveSinceFactor, rhoEst: s.rhoEst, spArmed: s.spArmed,
	}
	var prev *linalg.CachedLUState[luKey]
	if len(p.cps) > 0 {
		prev = p.cps[len(p.cps)-1].lu
	}
	cp.lu = s.clu.Snapshot(prev)
	p.cps = append(p.cps, cp)
	return true
}

// finish keeps the recorded samples up to the last checkpoint.
func (p *prefix) finish(res *Result) {
	k := p.cps[len(p.cps)-1].step + 1
	p.times = append([]float64(nil), res.Time[:k]...)
	p.probes = make([][]float64, len(res.v))
	for i, v := range res.v {
		p.probes[i] = append([]float64(nil), v[:k]...)
	}
}

// resumePoint returns the latest checkpoint of the prefix that a run over
// [start, stop] with breakpoints bps reproduces bit for bit, or nil when
// the run must start from scratch. The run reproduces the prefix's DC
// point when it starts at the prefix's start with every source at its held
// value, and each following step while the step ends before the first
// breakpoint and before the stop and every source still takes its held
// value at the step's end — the times at which the solver evaluates the
// sources.
func (s *Simulator) resumePoint(ctx context.Context, start, stop float64, bps []float64) *checkpoint {
	p := s.prefix
	if p == nil || !s.canResume() || math.Float64bits(start) != math.Float64bits(p.start) {
		return nil
	}
	if ctx != nil && ctx.Err() != nil {
		return nil // start from scratch, so the cancellation surfaces at t = start
	}
	srcs := s.part.Sources()
	holds := func(t float64) bool {
		for i, v := range srcs {
			if math.Float64bits(v.Value.At(t)) != p.held[i] {
				return false
			}
		}
		return true
	}
	if !holds(p.start) {
		return nil
	}
	last := 0 // last step this run reproduces
	for j := 1; j < len(p.times); j++ {
		t := p.times[j]
		if !(t < stop-1e-21) || (len(bps) > 0 && !(bps[0]-t > 1e-21)) || !holds(t) {
			break
		}
		last = j
	}
	return &p.cps[last/prefixStride] // checkpoint k is at step k·prefixStride
}

// resume puts the simulator in the state of checkpoint cp, as if the run
// had just accepted its step, and records the prefix's samples up to it.
func (s *Simulator) resume(cp *checkpoint, res *Result) {
	st := &s.tr
	copy(s.asm.X, cp.x)
	copy(st.xPrev, cp.x)
	copy(st.xPrevPrev, cp.xPrevPrev)
	st.t, st.base, st.hPrev, st.beSteps = cp.t, cp.base, cp.hPrev, cp.beSteps
	s.part.LoadState(&cp.part, s.asm)
	s.clu.Restore(cp.lu)
	s.moveSinceFactor, s.rhoEst, s.spArmed = cp.moveSinceFactor, cp.rhoEst, cp.spArmed
	s.bl.valid = false
	k := cp.step + 1
	p := s.prefix
	res.Time = append(res.Time, p.times[:k]...)
	for i := range res.v {
		res.v[i] = append(res.v[i], p.probes[i][:k]...)
	}
	s.stats.prefixResumes++
	s.stats.prefixSteps += int64(cp.step)
}
