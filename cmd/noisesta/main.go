// Command noisesta runs the gate-level static timing engine on a netlist:
// it characterizes (or loads) an NLDM library, propagates arrivals —
// optionally in parallel over the levelized graph — prints per-net timing
// and the critical path, optionally checks required-time constraints, and
// supports structural Verilog input plus SPEF parasitic annotation. It can
// also generate a seeded synthetic mesh instead of reading a file, and
// write any generated design back to disk in the native format.
//
// Usage:
//
//	noisesta -netlist design.nl  [-lib cells.lib] [-technique SGDP]
//	noisesta -verilog design.v   [-spef design.spef] [-require y=500ps]
//	noisesta -gen-gates 100000   [-gen-seed 7] [-workers 8] [-write-netlist mesh.nl]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"noisewave/internal/charlib"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/liberty"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/report"
	"noisewave/internal/spef"
	"noisewave/internal/sta"
	"noisewave/internal/verilog"
)

// maxOutputRows caps the per-output timing table so a 10⁵-gate mesh does
// not scroll hundreds of rows past the critical path.
const maxOutputRows = 32

type requireFlags map[string]float64

func (r requireFlags) String() string { return fmt.Sprint(map[string]float64(r)) }

func (r requireFlags) Set(s string) error {
	net, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want net=time, got %q", s)
	}
	t, err := netlist.ParseQuantity(val)
	if err != nil {
		return err
	}
	r[net] = t
	return nil
}

type options struct {
	netlistPath string
	verilogPath string
	spefPath    string
	libPath     string
	techName    string
	defSlew     string
	genGates    int
	genSeed     int64
	genWidth    int
	writePath   string
	workers     int
	timeout     time.Duration
	requires    requireFlags
}

func main() {
	opts := options{requires: requireFlags{}}
	flag.StringVar(&opts.netlistPath, "netlist", "", "netlist file (native format)")
	flag.StringVar(&opts.verilogPath, "verilog", "", "structural Verilog file")
	flag.StringVar(&opts.spefPath, "spef", "", "SPEF parasitics to annotate")
	flag.StringVar(&opts.libPath, "lib", "", "Liberty library, or \"synthetic\" for the mesh library (default: characterize built-in cells; generated meshes use the synthetic library)")
	flag.StringVar(&opts.techName, "technique", "SGDP", "noise conversion technique (P1,P2,LSF3,E4,WLS5,SGDP)")
	flag.StringVar(&opts.defSlew, "slew", "100ps", "default primary-input slew for Verilog input")
	flag.IntVar(&opts.genGates, "gen-gates", 0, "generate a synthetic mesh with this many gates instead of reading a file")
	flag.Int64Var(&opts.genSeed, "gen-seed", 1, "seed for the generated mesh")
	flag.IntVar(&opts.genWidth, "gen-width", 0, "gates per rank of the generated mesh (0 = ~sqrt)")
	flag.StringVar(&opts.writePath, "write-netlist", "", "write the timed design to this file in the native format")
	flag.IntVar(&opts.workers, "workers", 1, "parallel workers for arrival propagation (<=0 = all cores)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.Var(opts.requires, "require", "required arrival, e.g. -require y=500ps (repeatable)")
	flag.Parse()

	sources := 0
	for _, set := range []bool{opts.netlistPath != "", opts.verilogPath != "", opts.genGates > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "noisesta: exactly one of -netlist, -verilog or -gen-gates is required")
		os.Exit(2)
	}
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "noisesta:", err)
		os.Exit(1)
	}
}

func loadDesign(opts options) (*netlist.Design, error) {
	if opts.genGates > 0 {
		cfg := netgen.DefaultConfig(opts.genGates)
		cfg.Seed = opts.genSeed
		cfg.Width = opts.genWidth
		return netgen.Generate(cfg)
	}
	if opts.netlistPath != "" {
		f, err := os.Open(opts.netlistPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.Parse(f)
	}
	f, err := os.Open(opts.verilogPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mod, err := verilog.Parse(f)
	if err != nil {
		return nil, err
	}
	slew, err := netlist.ParseQuantity(opts.defSlew)
	if err != nil {
		return nil, err
	}
	return mod.ToDesign(slew)
}

func loadLibrary(opts options) (*liberty.Library, error) {
	if opts.libPath == "synthetic" {
		return netgen.SyntheticLibrary(), nil
	}
	if opts.libPath != "" {
		f, err := os.Open(opts.libPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return liberty.Parse(f)
	}
	if opts.genGates > 0 {
		return netgen.SyntheticLibrary(), nil
	}
	tech := device.Default130()
	fmt.Fprintln(os.Stderr, "noisesta: characterizing built-in cells (coarse grid)...")
	return charlib.Characterize(tech, charlib.StandardCells(tech), charlib.FastOptions())
}

func run(w io.Writer, opts options) error {
	design, err := loadDesign(opts)
	if err != nil {
		return err
	}
	if opts.spefPath != "" {
		f, err := os.Open(opts.spefPath)
		if err != nil {
			return err
		}
		para, err := spef.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		para.Annotate(design)
		fmt.Fprintf(os.Stderr, "noisesta: annotated %d net caps, %d couplings from %s\n",
			len(para.GroundCap), len(para.Couplings), opts.spefPath)
	}
	if opts.writePath != "" {
		f, err := os.Create(opts.writePath)
		if err != nil {
			return err
		}
		if err := netlist.Write(f, design); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "noisesta: wrote %s (%d gates)\n", opts.writePath, len(design.Gates))
	}
	lib, err := loadLibrary(opts)
	if err != nil {
		return err
	}
	tech, err := eqwave.ByName(opts.techName)
	if err != nil {
		return err
	}
	timer := sta.New(lib, design)
	timer.Technique = tech
	if opts.genGates > 0 {
		timer.Wire = sta.ElmoreWire // generated meshes carry RC annotations
	}

	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := timer.RunCtx(ctx, sta.RunOptions{Workers: opts.workers})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(w, "design %s: %d gates, %d inputs, %d outputs (technique %s, %d workers, %.1f ms)\n\n",
		design.Name, len(design.Gates), len(design.Inputs), len(design.Outputs),
		tech.Name(), opts.workers, float64(wall.Microseconds())/1000)

	tbl := report.NewTable("Net", "Rise AT (ps)", "Rise Tr (ps)", "Fall AT (ps)", "Fall Tr (ps)")
	shown := 0
	for _, o := range design.Outputs {
		n := res.Nets[o]
		if n == nil {
			continue
		}
		if shown == maxOutputRows {
			fmt.Fprintf(os.Stderr, "noisesta: %d more outputs not shown\n", len(design.Outputs)-shown)
			break
		}
		shown++
		tbl.AddRow(o,
			pinCell(n.Rise), pinTrans(n.Rise),
			pinCell(n.Fall), pinTrans(n.Fall))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	net, edge, at, err := res.WorstOutput(design.Outputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nworst output: %s (%v) arrival %s ps\n", net, edge, report.Ps(at.Arrival))
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ncritical path:")
	ptbl := report.NewTable("Net", "Edge", "AT (ps)", "Trans (ps)", "Via")
	for _, s := range path {
		via := s.ViaGate
		if via == "" {
			via = "(input)"
		}
		ptbl.AddRow(s.Net, s.Edge.String(), report.Ps(s.Arrival), report.Ps(s.Trans), via)
	}
	if err := ptbl.Render(w); err != nil {
		return err
	}

	if len(opts.requires) > 0 {
		req, err := timer.ComputeRequired(res, opts.requires)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nslack report:")
		stbl := report.NewTable("Net", "Edge", "AT (ps)", "Required (ps)", "Slack (ps)")
		// Rows in net-name order, as the STA job's slack list: ranging
		// over the map would reorder them between identical runs.
		for _, netName := range sortedNets(opts.requires) {
			rt := opts.requires[netName]
			for _, e := range []sta.PathStep{{Edge: 0}, {Edge: 1}} {
				s, ok := req.Slack(res, netName, e.Edge)
				if !ok {
					continue
				}
				n := res.Nets[netName]
				pt := n.Rise
				if e.Edge != 0 {
					pt = n.Fall
				}
				stbl.AddRow(netName, e.Edge.String(), report.Ps(pt.Arrival), report.Ps(rt), report.Ps(s))
			}
		}
		if err := stbl.Render(w); err != nil {
			return err
		}
		if wnet, wedge, ws, ok := req.WorstSlack(res); ok {
			verdict := "MET"
			if ws < 0 {
				verdict = "VIOLATED"
			}
			fmt.Fprintf(w, "\nworst slack: %s ps at %s (%v) — %s\n", report.Ps(ws), wnet, wedge, verdict)
		}
	}
	return nil
}

func pinCell(p sta.PinTiming) string {
	if !p.Valid {
		return "-"
	}
	return report.Ps(p.Arrival)
}

func pinTrans(p sta.PinTiming) string {
	if !p.Valid {
		return "-"
	}
	return report.Ps(p.Trans)
}

// sortedNets returns the constrained net names in ascending order.
func sortedNets(requires requireFlags) []string {
	nets := make([]string, 0, len(requires))
	for net := range requires {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	return nets
}
