package biscatter

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyCallers lists the functions and methods under internal/ that no
// program in the module calls but that stay anyway, each with its reason.
// Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyCallers = map[string]string{
	// Reference implementations that tests compare production code against.
	"dsp.DFT":                  "direct O(n²) oracle for every FFT path",
	"dsp.FFT":                  "oracle for the planned transforms",
	"dsp.IFFT":                 "oracle for the inverse transforms",
	"dsp.FFTReal":              "oracle for RealFFTPlan",
	"dsp.Magnitudes":           "oracle for the fused magnitude paths",
	"dsp.FFTPlan.Forward":      "oracle for ForwardPrefix and the frozen kernel",
	"dsp.AutocorrelationInto":  "direct-sum oracle for FFTAutocorr",
	"dsp.GoertzelPower":        "single-tone oracle for the batched signature scan",
	"dsp.Median":               "oracle for MedianWith and the frozen detectors",
	"radar.SubtractBackground": "oracle for SubtractBackgroundMagInto",
	"fmcw.SynthesizeRealChirp": "waveform.go: time-domain check of the IF model",
	"fmcw.MixToIF":             "waveform.go: time-domain check of the IF model",
	"fmcw.DelaySamples":        "waveform.go: time-domain check of the IF model",
	"fmcw.EnvelopeDetect":      "waveform.go: time-domain check of the IF model",
	"cssk.Alphabet.Durations":  "checks the chirp durations the alphabet lays out",
	"packet.Config.Durations":  "checks the chirp durations a packet lays out",

	// Paper models named in DESIGN.md.
	"delayline.Calibrate":                      "§3.2.1 delay-line calibration",
	"delayline.Calibration.BeatForSlope":       "§3.2.1 delay-line calibration",
	"delayline.Calibration.SlopeForBeat":       "§3.2.1 delay-line calibration",
	"delayline.Pair.MeanInsertionLossDB":       "§6 delay-line loss term of the downlink budget",
	"radar.Radar.DecodeUplinkOOK":              "§3.3 OOK uplink",
	"baseline.NewTwoToneDownlink":              "the MilBack row of the baseline comparison",
	"baseline.TwoToneDownlink.SymbolErrorRate": "the MilBack row of the baseline comparison",
	"tag.ComputeModel.GoertzelSavings":         "§4.1 tag compute model",
	"cssk.Config.SpacingForBits":               "the mode-ladder rationale in DESIGN.md",
	"cssk.Config.WithSymbolBits":               "the mode-ladder rationale in DESIGN.md",

	// Accessors that tests use to observe production state.
	"radar.Radar.CacheBytes":     "observes phasor and chirp-z cache growth",
	"dsp.ToneTable.Cap":          "observes the tone table",
	"dsp.RMS":                    "observes signal level",
	"packet.Config.PacketChirps": "observes frame length",

	// Reported by the root benchmarks.
	"eval.BERCounter.FloorRate": "bench_test.go reports it",
}

// TestInternalFuncsHaveCallers fails on any top-level function or method
// under internal/ that no non-test Go file in the module (roundbench/
// included) calls outside its own declaration, unless testOnlyCallers names
// it with a reason. The non-test files are type-checked with go/types, so a
// method counts as called only when a selection resolves to it by receiver
// type, never through a namesake on another type. A method also counts as
// called when its type satisfies an interface that has it (the module's own
// interfaces, exported standard-library interfaces and error), or when it
// is an exported method of a type biscatter.go re-exports as public API.
func TestInternalFuncsHaveCallers(t *testing.T) {
	// The standard library is type-checked from source; its pure-Go
	// variants need no C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "biscatter"
		if dir != "" {
			ip += "/" + filepath.ToSlash(filepath.Clean(dir))
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{fset: fset, files: files, info: info,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}

	// uses maps each function or method to the positions where non-test
	// code names it.
	uses := map[*types.Func][]token.Pos{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			uses[fn] = append(uses[fn], id.Pos())
		}
	}
	public := publicMethods(files["biscatter"], info)
	byName := interfacesByMethod(imp.pkgs)

	var uncalled []string
	exists := map[string]bool{}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, "biscatter/internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				called := public[fn] || satisfiesInterface(fn, byName[fn.Name()])
				for _, p := range uses[fn] {
					if p < fd.Pos() || p >= fd.End() {
						called = true
						break
					}
				}
				_, kept := testOnlyCallers[key]
				switch {
				case called && kept:
					t.Errorf("testOnlyCallers names %s, which a program calls: drop it from the list", key)
				case !called && !kept:
					uncalled = append(uncalled, key+" ("+fset.Position(fd.Pos()).Filename+")")
				}
				exists[key] = true
			}
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("no program calls %s: delete it, or add it to testOnlyCallers with a reason", u)
	}
	for key := range testOnlyCallers {
		if !exists[key] {
			t.Errorf("testOnlyCallers names %s, which no longer exists", key)
		}
	}
}

// moduleImporter type-checks the module's packages from the parsed files,
// recording every identifier's object into one shared types.Info, and
// leaves the standard library to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// publicMethods returns the exported methods of the named types the facade
// files re-export through type aliases.
func publicMethods(facade []*ast.File, info *types.Info) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range facade {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				return true
			}
			if named, ok := types.Unalias(info.Defs[ts.Name].Type()).(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out[m] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// interfacesByMethod indexes, by method name, the interfaces a module value
// can be handed to: every named interface the module declares, every
// exported named interface of the standard-library packages it reaches,
// and error.
func interfacesByMethod(module map[string]*types.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		own := module[p.Path()] == p
		if !own && (strings.Contains(p.Path(), "internal") || strings.Contains(p.Path(), "vendor")) {
			return
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(own || tn.Exported()) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range module {
		visit(p)
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type, or
// a pointer to it, implements one of the interfaces (which all have a
// method of fn's name).
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// recvTypeName returns the type name of a method receiver, without pointer
// or type parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
