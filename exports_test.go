package noisewave_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test code uses, each with the consumer that keeps it; the
// identifier's doc comment names the same consumer. Keys are the package
// path below internal/, then the identifier, then the method.
var exportAllowlist = map[string]string{
	// Public API, open ROADMAP items and experiment drivers.
	"device.Tech.AtCorner":              "public API: the facade's Corner type documents it",
	"wave.Waveform.Window":              "public API: ErrEmptyWindow's only producer, checked by api_test.go",
	"experiments.RunAblation":           "go test regenerates the ablation table through it",
	"xtalk.Config.Build":                "ROADMAP item 3: path testbench",
	"interconnect.Line.Build":           "ROADMAP item 3: path testbench",
	"interconnect.Line.Ladder":          "ROADMAP items 3 and 6: closed-form RC analysis",
	"interconnect.RCLadder.ElmoreDelay": "ROADMAP item 6: coupled-RC noise pulse",
	"interconnect.RCLadder.DelayAt":     "ROADMAP item 6: coupled-RC noise pulse",
	"interconnect.RCLadder.Moments":     "ROADMAP item 6: coupled-RC noise pulse",

	// Test oracles: the copies the production paths are checked against.
	"wave.Waveform.Derivative":    "oracle of Sampler.Slope",
	"wave.Waveform.Monotonicized": "oracle of Sampler.Envelope and the eqwave reference fits",
	"wave.Waveform.Crossings":     "oracle of FirstCrossing/LastCrossing in FuzzCrossings and the eqwave reference fits",

	// Test helpers that tests of kept paths call.
	"linalg.SolveDense":        "linalg and circuit tests",
	"linalg.MaxAbsDiff":        "linalg sparse-versus-dense tests",
	"wave.Waveform.MaxAbsDiff": "wave and crosstalk testbench tests",
	"core.Comparison.Result":   "core tests",
	"sweep.FailureReport.Case": "sweep resilience and partial-sweep tests",
	"trace.Tracer.Dropped":     "trace and experiments tests",
	"jobs.Job.Done":            "job-service tests",
}

// optionFieldAllowlist names the exported fields of exported *Options
// structs under internal/ that no non-test code outside the field's own
// package sets, each with what keeps it. Keys are the package path below
// internal/, then the struct, then the field.
var optionFieldAllowlist = map[string]string{
	"charlib.Options.Slews":     "public API: the facade's CharacterizationOptions",
	"charlib.Options.Loads":     "public API: the facade's CharacterizationOptions",
	"charlib.Options.Step":      "public API: the facade's CharacterizationOptions",
	"charlib.Options.WithWaves": "ROADMAP items 1, 3 and 6: libraries characterized with waves",

	"spice.Options.VTol":     "ROADMAP items 4 and 5: convergence study at VTol/4",
	"spice.Options.Adaptive": "ROADMAP items 4 and 5: LTE step control",
	"spice.Options.LTETol":   "ROADMAP items 4 and 5: LTE step control",
	"spice.Options.MaxStep":  "ROADMAP items 4 and 5: LTE step control",
	"spice.Options.MinStep":  "ROADMAP items 4 and 5: LTE step control",
}

// TestNoUnconsumedExports type-checks the module and the benchmark module
// (perfbench/) from source and fails on every exported function, type,
// variable, constant or method under internal/ that no non-test code
// uses. Test files are not consumers: an export only tests call is dead
// weight for the library unless the allowlist names why it stays. Methods
// that satisfy an interface are exempt, since an interface call names the
// interface's method, not theirs.
func TestNoUnconsumedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	used := l.usedOutsideDecl()
	ifaces := l.interfaces()

	unconsumed := map[string]bool{}
	for _, p := range l.paths {
		rel, ok := strings.CutPrefix(p, "noisewave/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unconsumed[rel+"."+name] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
					unconsumed[rel+"."+name+"."+m.Name()] = true
				}
			}
		}
	}

	checkAllowlist(t, unconsumed, exportAllowlist,
		"exported identifiers under internal/ have no non-test consumer; delete them, or allowlist them with the consumer that keeps them")
}

// TestNoTestOnlyUnexported type-checks the module from source and fails
// on every unexported function or method of the main module (perfbench/
// excluded) that no non-test code calls: code only tests reach belongs in
// a _test.go file. Methods that satisfy an interface are exempt, as in
// TestNoUnconsumedExports, and so is each command's main.
func TestNoTestOnlyUnexported(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	used := l.usedOutsideDecl()
	ifaces := l.interfaces()

	var bad []string
	for _, p := range l.paths {
		if p == "noisewave/perfbench" || strings.HasPrefix(p, "noisewave/perfbench/") {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if !obj.Exported() && !used[obj] && !(name == "main" && l.pkgs[p].Name() == "main") {
					bad = append(bad, p+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if !m.Exported() && !used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
						bad = append(bad, p+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d unexported functions or methods have no non-test caller; move them into a _test.go file or delete them:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// TestNoUnsetOptionFields fails on every exported field of an exported
// *Options struct under internal/ that no non-test code outside the
// field's own package sets: names as a composite-literal key, assigns,
// increments or takes the address of. A field only its own package or a
// test sets is a setting no product caller can change; it becomes a
// constant or goes on optionFieldAllowlist with the reason it stays.
func TestNoUnsetOptionFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	set := map[*types.Var]bool{}
	for _, p := range l.paths {
		// mark records the field that e names, if it names one.
		mark := func(e ast.Expr) {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				id = e.Sel
			case *ast.Ident: // a composite-literal key names a field bare
				id = e
			default:
				return
			}
			if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != p {
				set[v] = true
			}
		}
		for _, f := range l.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					mark(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}

	unset := map[string]bool{}
	for _, p := range l.paths {
		rel, ok := strings.CutPrefix(p, "noisewave/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset[rel+"."+name+"."+f.Name()] = true
				}
			}
		}
	}
	checkAllowlist(t, unset, optionFieldAllowlist,
		"exported *Options fields under internal/ are set by no non-test code outside their package; make them constants, or allowlist them with the reason they stay")
}

// checkAllowlist fails on every found identifier the allowlist does not
// name, and on every allowlist entry that is no longer found.
func checkAllowlist(t *testing.T, found map[string]bool, allow map[string]string, what string) {
	t.Helper()
	var bad, stale []string
	for id := range found {
		if _, ok := allow[id]; !ok {
			bad = append(bad, id)
		}
	}
	for id := range allow {
		if !found[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(bad)
	sort.Strings(stale)
	if len(bad) > 0 {
		t.Errorf("%d %s:\n\t%s", len(bad), what, strings.Join(bad, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("allowlist entries that are no longer found; remove them:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// loadModule type-checks the module and the benchmark module (perfbench/)
// from source, once for both scans.
var loadModule = sync.OnceValues(func() (*moduleLoader, error) {
	l := &moduleLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		spans: map[types.Object][2]token.Pos{},
		info: &types.Info{
			Uses: map[*ast.Ident]types.Object{},
			Defs: map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if files, _ := goFiles(path); len(files) > 0 {
			l.paths = append(l.paths, importPath(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range l.paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l, nil
})

// importPath maps a directory relative to the repository root to its
// import path. The benchmark module's path, noisewave/perfbench, follows
// the same rule.
func importPath(dir string) string {
	if dir == "." {
		return "noisewave"
	}
	return "noisewave/" + filepath.ToSlash(dir)
}

// moduleLoader type-checks the repository's packages from source in
// import order, and everything else from the toolchain's export data. All
// packages share one types.Info.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.Importer
	paths []string // every package of the repository, in walk order
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // each package's non-test files
	info  *types.Info
	spans map[types.Object][2]token.Pos // function declaration extents
}

// goFiles lists the non-test Go files of dir that the default build
// context compiles.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "noisewave" && !strings.HasPrefix(path, "noisewave/") {
		return l.std.Import(path)
	}
	return l.load(path)
}

func (l *moduleLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "."
	if rel, ok := strings.CutPrefix(path, "noisewave/"); ok {
		dir = filepath.FromSlash(rel)
	}
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.spans[l.info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
			}
		}
	}
	return pkg, nil
}

// usedOutsideDecl returns every object that non-test code uses outside
// the object's own declaration: a function that only calls itself is not
// used.
func (l *moduleLoader) usedOutsideDecl() map[types.Object]bool {
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if span, ok := l.spans[obj]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		used[obj] = true
	}
	return used
}

// interfaces indexes by method name every named interface of the checked
// packages and of the packages they import, so fmt.Stringer,
// heap.Interface and slog.Handler count though the code never spells
// them. Interface literals do not count: a method that only matches one
// has a single signature in common with it, not a role.
func (l *moduleLoader) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	return byMethod
}

func satisfiesInterface(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
