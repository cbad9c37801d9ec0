package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// TestSlackReportSortedByNet: the slack report lists its rows in net-name
// order, the same on every run, whatever order -require named the nets in.
func TestSlackReportSortedByNet(t *testing.T) {
	opts := options{
		genGates: 200, genSeed: 1, workers: 1, techName: "SGDP",
		requires: requireFlags{},
	}
	for _, c := range []string{"l15_n3=800ps", "l15_n0=800ps", "l15_n2=800ps", "l15_n1=800ps"} {
		if err := opts.requires.Set(c); err != nil {
			t.Fatal(err)
		}
	}
	var first []string
	for i := 0; i < 8; i++ {
		var out bytes.Buffer
		if err := run(&out, opts); err != nil {
			t.Fatal(err)
		}
		_, report, ok := strings.Cut(out.String(), "slack report:\n")
		if !ok {
			t.Fatalf("no slack report in output:\n%s", out.String())
		}
		report, _, _ = strings.Cut(report, "\n\n")
		lines := strings.Split(report, "\n")
		rows := lines[2:] // header and rule
		if len(rows) != 2*len(opts.requires) {
			t.Fatalf("slack report has %d rows, want %d:\n%s", len(rows), 2*len(opts.requires), report)
		}
		nets := make([]string, len(rows))
		for k, r := range rows {
			nets[k] = strings.Fields(r)[0]
		}
		if !sort.StringsAreSorted(nets) {
			t.Fatalf("run %d: slack rows not in net order: %v", i, nets)
		}
		if first == nil {
			first = rows
		} else if strings.Join(rows, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d printed different slack rows:\n%s\nthen\n%s",
				i, strings.Join(first, "\n"), strings.Join(rows, "\n"))
		}
	}
}
