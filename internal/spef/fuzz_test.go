package spef

import (
	"strings"
	"testing"

	"noisewave/internal/netlist"
)

// FuzzParse hardens the SPEF reader against hostile input: it must return
// parasitics or an error, never panic, and anything it accepts must
// annotate a design.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("*D_NET n1 1.0\n*CAP\n1 n1:1 2\n2 n1:2 agg:1 0.5\n*END\n")
	f.Add("*NAME_MAP\n*1 a\n*2 b\n*D_NET *1\n*CAP\n1 *1 *2 3\n")
	f.Add("*T_UNIT 1\n")
	f.Add("*C_UNIT 1 XF\n")
	f.Add("*D_NET\n")
	f.Add("*CAP\n1 a:1\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(strings.NewReader(src))
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned parasitics alongside error %v", err)
			}
			return
		}
		d := &netlist.Design{}
		p.Annotate(d)
		if len(d.Couplings) != len(p.Couplings) {
			t.Fatalf("annotated %d couplings, parsed %d", len(d.Couplings), len(p.Couplings))
		}
	})
}
