package sta

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/wave"
)

// RunOptions is the run-control block of RunCtx, mirroring the
// experiments.SweepOptions conventions: worker-pool sizing, telemetry and
// tracing live in one struct instead of mutable Timer fields. The model
// (design, library, technique, annotations, wire model) lives on the
// Timer.
//
// The zero value runs on every available core with no telemetry and no
// tracing; Workers: 1 gives the strictly sequential path. The numbers are
// the same either way.
type RunOptions struct {
	// Workers sizes the run's worker pool: 1 runs the strictly sequential
	// path, <= 0 uses all available cores, and any N > 1 fans the graph
	// compile's read-only lookups, each level's independent gates and each
	// level boundary's noise conversions out over N workers. Arrivals,
	// slacks, back-pointers and errors are the same at any worker count.
	Workers int
	// Telemetry, if non-nil, observes the run: gate and arc counters,
	// noise conversions, levels/nets gauges and the sta.run_seconds wall
	// timer (metric names in EXPERIMENTS.md "Observability").
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records hierarchical spans for the run: one
	// sta.run root with sta.build and sta.propagate children, plus one
	// event per noise conversion. sta.build carries a noise_sites
	// attribute and splits into sta.compile (the graph compile) and
	// sta.bind (noise binding). Tracing never changes the numbers.
	Tracer *trace.Tracer
}

// minParallelLevel is the smallest level fanned out to the pool; narrower
// levels (an inverter chain degenerates to width 1) run inline, where the
// dispatch overhead would exceed the work.
const minParallelLevel = 64

// checkEvery bounds how many gates a worker times between cancellation
// checks inside one wide level.
const checkEvery = 4096

// RunCtx propagates arrivals from the primary inputs to all nets over the
// compact levelized graph: gates are bucketed by topological depth and
// each level's gates — mutually independent by construction — are timed in
// parallel across opts.Workers goroutines. Every per-arc quantity (loads,
// parasitics, arcs, cell pointers) is resolved into flat arrays before the
// first lookup, so the propagation loop performs no map access and no
// per-net allocation. Each run compiles that graph from the timer's
// current Design and Lib and hands it to its Result; the compile's name
// index is Result.Nets, whose values point into the arena the run times
// into. With opts.Workers > 1 the compile's read-only lookups fan out over
// the workers too.
//
// The result is bit-identical to the sequential map-based walk the tests
// keep as an oracle, at any worker count: each output net is written only by
// its single driver gate, per-gate arc iteration order matches the
// sequential walk, and noise conversions run at deterministic level
// boundaries.
//
// Noise annotations are snapshotted at run start, so Annotate may run
// concurrently with RunCtx; the snapshot defines which annotations the run
// sees. A canceled ctx stops propagation at the next level boundary with
// an error matching telemetry.ErrCanceled; a nil ctx means
// context.Background().
func (t *Timer) RunCtx(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := opts.Telemetry
	defer reg.Timer("sta.run_seconds").Start()()
	wire := t.Wire
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	noise := t.snapshotNoise()

	_, span := opts.Tracer.Root(ctx, "sta.run", 0,
		trace.Int("gates", len(t.Design.Gates)),
		trace.Int("workers", workers))
	defer span.End()

	// sta.build covers compiling the graph (sta.compile) and binding the
	// annotation snapshot to it (sta.bind).
	build := span.Child("sta.build")
	compiling := build.Child("sta.compile")
	g, err := compile(t.Design, t.Lib, workers)
	compiling.End()
	if err != nil {
		build.End()
		return nil, err
	}
	binding := build.Child("sta.bind")
	e := &engine{timer: t, graph: g, wire: wire, reg: reg, state: g.state}
	e.res = &Result{Nets: g.nets, graph: g, wire: wire}
	build.SetAttr(trace.Int("noise_sites", e.bindNoise(noise)))
	binding.End()
	build.End()
	reg.Gauge("sta.levels").Set(float64(g.levels()))
	reg.Gauge("sta.nets").Set(float64(len(g.netName)))
	span.SetAttr(trace.Int("levels", g.levels()), trace.Int("nets", len(g.netName)))

	prop := span.Child("sta.propagate")
	err = e.propagate(ctx, workers, prop)
	prop.End()
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
		return nil, err
	}
	return e.res, nil
}

// snapshotNoise copies the annotation map under the timer's lock; the copy
// is what the run consumes, making concurrent Annotate/RunCtx defined.
func (t *Timer) snapshotNoise() map[string]*NoiseAnnotation {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Noise) == 0 {
		return nil
	}
	out := make(map[string]*NoiseAnnotation, len(t.Noise))
	for k, v := range t.Noise {
		out[k] = v
	}
	return out
}

// noiseSite is one annotated net prepared for the levelized engine: the
// conversion runs once, at the level boundary where the net's timing
// becomes final, using the first consuming gate (lowest level, then lowest
// gate index, then its first pin on the net) as the receiving-cell context
// for library reconstruction.
type noiseSite struct {
	net      int32
	ann      *NoiseAnnotation
	recvGate int32
	recvArc  int32 // the receiver's fanin arc index (into inNet)
}

// engine is the state of one RunCtx invocation.
type engine struct {
	timer *Timer
	graph *compactGraph
	wire  WireModel
	reg   *telemetry.Registry
	state []NetTiming // the graph's arena, indexed by net ID
	res   *Result

	// sites[l+1] lists the noise sites whose net is final once level l is
	// complete (l = -1: before level 0), in ascending net ID — primary
	// inputs in declaration order, gate outputs by driving gate index.
	sites [][]noiseSite

	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// bindNoise resolves the annotation snapshot against the graph in one pass
// over the fanin arcs and returns the number of sites bound. Annotated nets
// that no gate consumes are skipped — exactly like the sequential walk,
// which converts lazily at the first consuming gate.
func (e *engine) bindNoise(noise map[string]*NoiseAnnotation) int {
	g := e.graph
	e.sites = make([][]noiseSite, g.levels()+1)
	if len(noise) == 0 {
		return 0
	}
	found := make([]noiseSite, 0, len(noise))
	slot := make([]int32, len(g.netName)) // net ID -> 1 + index into found, 0 = none
	for name, ann := range noise {
		if id, ok := g.lookup(name); ok {
			found = append(found, noiseSite{net: id, ann: ann, recvGate: -1})
			slot[id] = int32(len(found))
		}
	}
	// Gates in ascending index, arcs in pin order: a strict < on level
	// keeps the lowest gate index among equal levels and that gate's first
	// pin on the net.
	for gi := int32(0); gi < int32(len(g.gateName)); gi++ {
		for k := g.inStart[gi]; k < g.inStart[gi+1]; k++ {
			s := slot[g.inNet[k]]
			if s == 0 {
				continue
			}
			site := &found[s-1]
			if site.recvGate < 0 || g.gateLevel[gi] < g.gateLevel[site.recvGate] {
				site.recvGate, site.recvArc = gi, k
			}
		}
	}
	// Ascending net ID, so each boundary's conversion order is
	// deterministic. A gate output is final after its driver's level, a
	// primary input before level 0.
	bound := 0
	for _, s := range slot {
		if s == 0 || found[s-1].recvGate < 0 {
			continue // no consumer: never converted, matching the walk
		}
		site := found[s-1]
		ready := int32(-1)
		if site.net >= g.base {
			ready = g.gateLevel[site.net-g.base]
		}
		e.sites[ready+1] = append(e.sites[ready+1], site)
		bound++
	}
	return bound
}

// propagate seeds the primary inputs and times the graph level by level.
func (e *engine) propagate(ctx context.Context, workers int, span *trace.Span) error {
	g := e.graph
	for _, in := range g.inputs {
		nt := &e.state[in.net]
		nt.Rise = PinTiming{Valid: true, Arrival: in.arrival, Early: in.arrival, Trans: in.slew}
		nt.Fall = nt.Rise
	}
	pool := newLevelPool(workers)
	defer pool.close()
	if err := e.convertSites(-1, pool, span); err != nil {
		return err
	}

	gatesTimed := e.reg.Counter("sta.gates_timed")
	levelSeconds := e.reg.Histogram("sta.level_seconds")
	for l := 0; l < g.levels(); l++ {
		if err := ctx.Err(); err != nil {
			return telemetry.Canceled(ctx, "sta: propagation stopped at level %d/%d", l, g.levels())
		}
		lo, hi := g.levelStart[l], g.levelStart[l+1]
		stopLevel := levelSeconds.Start()
		if pool == nil || hi-lo < minParallelLevel {
			if err := e.timeRange(ctx, lo, hi); err != nil {
				return err
			}
		} else {
			pool.run(hi-lo, int32(workers), func(a, b int32) {
				if e.failed.Load() {
					return
				}
				if err := e.timeRange(ctx, lo+a, lo+b); err != nil {
					e.fail(err)
				}
			})
			if e.err != nil { // the barrier orders every fail before this read
				return e.err
			}
		}
		stopLevel()
		gatesTimed.Add(int64(hi - lo))
		if err := e.convertSites(int32(l), pool, span); err != nil {
			return err
		}
	}
	return nil
}

// convertSites runs the noise conversions that become valid once level l
// is complete — the levelized equivalent of the sequential walk's
// first-consumer conversion. The fits fan out over the pool (when there is
// one) into per-site slots; this goroutine then counts them and
// overwrites the annotated edge of each net in the arena, so every later
// consumer sees the converted timing, in ascending net ID. The lowest
// site's error wins, so timing, counts and errors are the same at any
// worker count.
func (e *engine) convertSites(l int32, pool *levelPool, span *trace.Span) error {
	sites := e.sites[l+1]
	if len(sites) == 0 {
		return nil
	}
	g := e.graph
	fits := make([]noiseVal, len(sites))
	errs := make([]error, len(sites))
	fit := func(lo, hi int32) {
		for i := lo; i < hi; i++ {
			s := sites[i]
			ci := g.cellIn[s.recvGate]
			fits[i].arrival, fits[i].trans, errs[i] = e.timer.convert(g.netName[s.net], s.ann, &e.state[s.net],
				ci.cell, ci.arcs[s.recvArc-g.inStart[s.recvGate]], g.load[g.base+s.recvGate])
		}
	}
	if n := int32(len(sites)); n < 2 {
		fit(0, n)
	} else {
		pool.run(n, n, fit)
	}
	conversions := e.reg.Counter("sta.noise_conversions")
	for i, s := range sites {
		if errs[i] != nil {
			return fmt.Errorf("sta: gate %s input %s: %w", g.gateName[s.recvGate], g.netName[s.net], errs[i])
		}
		conversions.Inc()
		pt := e.state[s.net].timingFor(s.ann.Edge)
		pt.Valid = true
		pt.Arrival, pt.Early, pt.Trans = fits[i].arrival, fits[i].arrival, fits[i].trans
		span.Event("noise_conversion",
			trace.String("net", g.netName[s.net]),
			trace.Float("arrival", fits[i].arrival))
	}
	return nil
}

// timeRange times gates levelOrder[lo:hi] on the calling goroutine.
func (e *engine) timeRange(ctx context.Context, lo, hi int32) error {
	for i := lo; i < hi; i++ {
		if (i-lo)%checkEvery == checkEvery-1 {
			if err := ctx.Err(); err != nil {
				return telemetry.Canceled(ctx, "sta: propagation stopped mid-level")
			}
			if e.failed.Load() {
				return nil
			}
		}
		if err := e.timeGate(e.graph.levelOrder[i]); err != nil {
			return err
		}
	}
	return nil
}

// timeGate evaluates every fanin arc of one gate and folds the candidates
// into the gate's output net — the same candidate order and the same
// strict-greater max / strict-less min updates as the sequential walk, so
// worst-arrival tie-breaking (and with it back-pointers and transitions)
// is identical.
func (e *engine) timeGate(gi int32) error {
	g := e.graph
	outID := g.base + gi
	out := &e.state[outID]
	load := g.load[outID]
	lo, arcs := g.inStart[gi], g.cellIn[gi].arcs
	for k := lo; k < g.inStart[gi+1]; k++ {
		inID := g.inNet[k]
		arc := arcs[k-lo]
		in := &e.state[inID]
		for _, inEdge := range []wave.Edge{wave.Rising, wave.Falling} {
			it := in.timingFor(inEdge)
			if !it.Valid {
				continue
			}
			inArr, inTrans := it.Arrival, it.Trans
			if e.wire == ElmoreWire {
				wDelay, wTrans := wireDelay(g.wireRes[inID], g.wireCap[inID], g.pinCap[inID], inTrans)
				inArr += wDelay
				inTrans = wTrans
			}
			delay, outTrans, outEdge, err := arc.Delay(inEdge, inTrans, load)
			if err != nil {
				return fmt.Errorf("sta: gate %s: %w", g.gateName[gi], err)
			}
			cand := inArr + delay
			candEarly := it.Early + (inArr - it.Arrival) + delay
			ot := out.timingFor(outEdge)
			if !ot.Valid {
				*ot = PinTiming{
					Valid: true, Arrival: cand, Early: candEarly, Trans: outTrans,
					FromNet: g.netName[inID], FromEdge: inEdge, ViaGate: g.gateName[gi],
				}
				continue
			}
			if cand > ot.Arrival {
				early := ot.Early
				*ot = PinTiming{
					Valid: true, Arrival: cand, Early: early, Trans: outTrans,
					FromNet: g.netName[inID], FromEdge: inEdge, ViaGate: g.gateName[gi],
				}
			}
			if candEarly < ot.Early {
				ot.Early = candEarly
			}
		}
	}
	return nil
}

// levelPool is the bounded worker pool a run fans its work out over:
// persistent goroutines, chunked index ranges, a WaitGroup barrier per
// batch. A level's gates write disjoint output nets, a boundary's
// conversions and a compile phase's ranges write disjoint slots, so
// workers share the arrays without synchronization beyond the barrier.
// Each caller keeps its own error policy. A nil pool runs every batch
// inline, with no goroutines.
type levelPool struct {
	jobs chan chunk
	wg   sync.WaitGroup
}

// chunk is one worker job: fn over the index range [lo, hi).
type chunk struct {
	lo, hi int32
	fn     func(lo, hi int32)
}

// newLevelPool starts workers goroutines; for one worker or fewer it
// returns the nil pool, which runs inline.
func newLevelPool(workers int) *levelPool {
	if workers <= 1 {
		return nil
	}
	p := &levelPool{jobs: make(chan chunk, workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for c := range p.jobs {
				c.fn(c.lo, c.hi)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run splits [0, n) into at most chunks ranges, runs fn over them on the
// workers and waits for the barrier.
func (p *levelPool) run(n, chunks int32, fn func(lo, hi int32)) {
	p.beside(func() {}, n, chunks, fn)
}

// beside is run with serial executing on the calling goroutine while the
// workers take the ranges; it returns once both are done. Without a pool,
// fn covers [0, n) first and serial runs after it.
func (p *levelPool) beside(serial func(), n, chunks int32, fn func(lo, hi int32)) {
	if p == nil {
		fn(0, n)
		serial()
		return
	}
	size := (n + chunks - 1) / chunks
	for c := int32(0); c < n; c += size {
		p.wg.Add(1)
		p.jobs <- chunk{lo: c, hi: min(c+size, n), fn: fn}
	}
	serial()
	p.wg.Wait()
}

func (p *levelPool) close() {
	if p != nil {
		close(p.jobs)
	}
}

// fail records the first error and stops further work.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.failed.Store(true)
}
