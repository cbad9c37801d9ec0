package noisewave

import (
	"context"
	"os"
	"testing"
)

// TestSampleDesignBundle pins the shipped testdata files: the Verilog and
// native netlists must parse to equivalent designs, the SPEF must annotate
// cleanly, and the whole bundle must time end-to-end against a
// characterized library.
func TestSampleDesignBundle(t *testing.T) {
	vf, err := os.Open("testdata/sample.v")
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	mod, err := ParseVerilog(vf)
	if err != nil {
		t.Fatalf("sample.v: %v", err)
	}
	dv, err := mod.ToDesign(120e-12)
	if err != nil {
		t.Fatalf("sample.v conversion: %v", err)
	}

	sf, err := os.Open("testdata/sample.spef")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	para, err := ParseSPEF(sf)
	if err != nil {
		t.Fatalf("sample.spef: %v", err)
	}
	para.Annotate(dv)
	if dv.NetCaps["n3"] < 90e-15 {
		t.Errorf("n3 wire cap not annotated: %g", dv.NetCaps["n3"])
	}
	if len(dv.Couplings) == 0 {
		t.Error("coupling not annotated")
	}

	nf, err := os.Open("testdata/sample.nl")
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	dn, err := ParseNetlist(nf)
	if err != nil {
		t.Fatalf("sample.nl: %v", err)
	}
	if len(dn.Gates) != len(dv.Gates) {
		t.Errorf("gate count mismatch: %d vs %d", len(dn.Gates), len(dv.Gates))
	}

	lib, err := Characterize(DefaultTech(), FastCharacterization())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Design{dv, dn} {
		res, err := NewTimer(lib, d).RunCtx(context.Background(), RunOptions{Workers: 1})
		if err != nil {
			t.Fatalf("timing %s: %v", d.Name, err)
		}
		y := res.Nets["y"]
		if y == nil || (!y.Rise.Valid && !y.Fall.Valid) {
			t.Fatalf("design %s: output not timed", d.Name)
		}
	}
}
