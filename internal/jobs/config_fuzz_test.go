package jobs

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzConfigNormalized checks the canonical form the job cache keys on:
// Normalized never panics on a decoded config and rejects only with
// ErrInvalidConfig; a config it accepts normalizes to itself with the same
// Hash, and keeps that Hash across the JSON round trip the journal puts it
// through.
func FuzzConfigNormalized(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"table1"}`,
		`{"experiment":"table1","config":"ii","cases":8,"p":15,"range_s":2e-9,"techniques":["SGDP","P1"]}`,
		`{"experiment":"pushout","seed":7,"monte_carlo":true,"keep_going":true}`,
		`{"experiment":"pushout","cases":-3,"p":0,"range_s":-0}`,
		`{"experiment":"sta","netlist":"design d\ninput a\n","liberty":"library(x){}","wire":"elmore","require":{"y":"400ps"}}`,
		`{"experiment":"sta","netlist":"n","liberty":"l","technique":"WLS5","techniques":[]}`,
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
