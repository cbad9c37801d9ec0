package jobs

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzConfigNormalized checks the canonical form the job cache keys on:
// Normalized never panics on a decoded config and rejects only with
// ErrInvalidConfig; a config it accepts carries no field its experiment
// ignores, normalizes to itself with the same Hash, and keeps that Hash
// across the JSON round trip the journal puts it through.
func FuzzConfigNormalized(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"table1"}`,
		`{"experiment":"table1","config":"ii","cases":8,"p":15,"range_s":2e-9,"techniques":["SGDP","P1"]}`,
		`{"experiment":"pushout","seed":7,"monte_carlo":true,"keep_going":true}`,
		`{"experiment":"pushout","cases":-3,"p":0,"range_s":-0}`,
		`{"experiment":"sta","netlist":"design d\ninput a\n","liberty":"library(x){}","wire":"elmore","require":{"y":"400ps"}}`,
		`{"experiment":"sta","netlist":"n","liberty":"l","require":{"y":"banana"},"techniques":[]}`,
		`{"experiment":"pushout","p":35,"techniques":["SGDP"],"seed":7}`,
		`{"experiment":"table1","cases":10001}`,
		`{"experiment":"table1","range_s":1e300}`,
		`{"experiment":"bogus"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		n, err := c.Normalized()
		if err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Normalized rejected %s with %v, not ErrInvalidConfig", data, err)
			}
			return
		}
		sweepFields := n.Config != "" || n.Cases != 0 || n.P != 0 || n.RangeS != 0 ||
			len(n.Techniques) > 0 || n.Seed != 0 || n.MonteCarlo || n.KeepGoing
		staFields := n.Netlist != "" || n.Liberty != "" || n.Wire != "" || len(n.Require) > 0
		switch {
		case n.Experiment == ExpTable1 && (n.Seed != 0 || n.MonteCarlo || staFields),
			n.Experiment == ExpPushout && (n.P != 0 || len(n.Techniques) > 0 || (n.Seed != 0 && !n.MonteCarlo) || staFields),
			n.Experiment == ExpSTA && sweepFields:
			t.Fatalf("accepted %s carries a field its experiment ignores: %+v", data, n)
		}
		again, err := n.Normalized()
		if err != nil {
			t.Fatalf("normalized config %+v rejected on re-normalization: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) || again.Hash() != n.Hash() {
			t.Fatalf("re-normalization changed the config:\n%+v\n%+v", n, again)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var rt Config
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatalf("journal round trip of %s: %v", b, err)
		}
		if rt.Hash() != n.Hash() {
			t.Fatalf("hash changed across the JSON round trip:\n%+v\n%+v", n, rt)
		}
		rtn, err := rt.Normalized()
		if err != nil || rtn.Hash() != n.Hash() {
			t.Fatalf("round-tripped config re-normalizes to %+v, %v", rtn, err)
		}
	})
}
