package sta

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/wave"
)

// TestEarlyEqualsLateOnSinglePath: with one path there is no spread.
func TestEarlyEqualsLateOnSinglePath(t *testing.T) {
	d := mustParse(t, `
design single
input a at=10ps
output y
gate u1 INV A=a Y=n1
gate u2 BUF A=n1 Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
		pt := res.Nets["y"].timingFor(e)
		if !pt.Valid {
			continue
		}
		if math.Abs(pt.Early-pt.Arrival) > 1e-18 {
			t.Errorf("%v: early %g != late %g on a single path", e, pt.Early, pt.Arrival)
		}
	}
}

// TestEarlyLateSpreadOnReconvergence: two paths of different depth into a
// NAND create an arrival window; early must track the short path and late
// the long one.
func TestEarlyLateSpreadOnReconvergence(t *testing.T) {
	d := mustParse(t, `
design spread
input a at=0ps
output y
gate u1 BUF  A=a Y=n1
gate u2 BUF  A=n1 Y=n2
gate u3 NAND A=n2 B=a Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Nets["y"].timingFor(wave.Falling) // both inputs rising → falls
	if !pt.Valid {
		t.Fatal("y fall not timed")
	}
	if pt.Early >= pt.Arrival {
		t.Fatalf("no arrival window: early %g >= late %g", pt.Early, pt.Arrival)
	}
	// Short path: a (rise at 0) through the B arc (18 ps) = 18 ps.
	if math.Abs(pt.Early-18e-12) > 1e-15 {
		t.Errorf("early = %g, want 18 ps (direct B path)", pt.Early)
	}
	// Long path: two buffers (20 ps each) + A arc (15 ps) = 55 ps.
	if math.Abs(pt.Arrival-55e-12) > 1e-15 {
		t.Errorf("late = %g, want 55 ps (buffered A path)", pt.Arrival)
	}
}

// TestEarlyNeverExceedsLate is the structural invariant across a tree.
func TestEarlyNeverExceedsLate(t *testing.T) {
	d := mustParse(t, `
design inv
input a at=0ps
input b at=40ps
output y
gate g1 NAND A=a B=b Y=n1
gate g2 INV A=n1 Y=n2
gate g3 NAND A=n2 B=a Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, nt := range res.Nets {
		for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
			pt := nt.timingFor(e)
			if pt.Valid && pt.Early > pt.Arrival+1e-18 {
				t.Errorf("net %s %v: early %g > late %g", name, e, pt.Early, pt.Arrival)
			}
		}
	}
}
