package biscatter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
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
	"dsp.ResampleCubic":        "oracle for ResampleCubicInto",
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
	"core.LinkController.NodeState":     "observes breaker and mode state",
	"parallel.Pool.ArenaFootprintBytes": "observes arena growth",
	"radar.Radar.PhasorCacheBytes":      "observes phasor cache growth",
	"telemetry.Tracer.Dropped":          "observes the tracer bound",
	"dsp.ToneTable.Cap":                 "observes the tone table",
	"dsp.ToneTable.Freq":                "observes the tone table",
	"dsp.RMS":                           "observes signal level",
	"packet.Config.PacketChirps":        "observes frame length",

	// Reported by the root benchmarks.
	"eval.BERCounter.FloorRate": "bench_test.go reports it",

	// Called through an interface.
	"netio.streamTimeoutError.Temporary": "implements net.Error",
}

// TestInternalFuncsHaveCallers fails on any top-level function or method
// under internal/ that no non-test Go file in the module calls outside its
// own declaration, unless testOnlyCallers names it with a reason. A function
// counts as called when its own package names it, or another file names it
// through its package's import. A method counts as called when any non-test
// file selects a method of that name, so a dead method can hide behind a
// live namesake, but nothing a program calls is ever flagged.
func TestInternalFuncsHaveCallers(t *testing.T) {
	const module = "biscatter/"
	type decl struct {
		key, ref, file string
		pos, end       token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	// refs maps "dir.Func" for package-level names, and ".Method" for
	// selected names, to the positions where non-test code uses them.
	refs := map[string][]token.Pos{}
	use := func(key string, p token.Pos) { refs[key] = append(refs[key], p) }

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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(ip, module) {
				continue
			}
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, module)
		}
		if strings.HasPrefix(dir, "internal/") {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				d := decl{key: f.Name.Name + "." + fd.Name.Name, ref: dir + "." + fd.Name.Name,
					file: path, pos: fd.Pos(), end: fd.End()}
				if fd.Recv != nil {
					d.key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					d.ref = "." + fd.Name.Name
				}
				decls = append(decls, d)
			}
		}
		// declared holds identifiers that name a declaration or a struct
		// field rather than use a function.
		declared := map[*ast.Ident]bool{}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declared[x.Name] = true
			case *ast.TypeSpec:
				declared[x.Name] = true
			case *ast.Field:
				for _, name := range x.Names {
					declared[name] = true
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok {
					declared[key] = true
				}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					use(imports[pkg.Name]+"."+x.Sel.Name, x.Sel.Pos())
					return false
				}
				use("."+x.Sel.Name, x.Sel.Pos())
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if !declared[x] {
					use(dir+"."+x.Name, x.Pos())
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var uncalled []string
	exists := map[string]bool{}
	for _, d := range decls {
		called := false
		for _, p := range refs[d.ref] {
			if p < d.pos || p >= d.end {
				called = true
				break
			}
		}
		_, kept := testOnlyCallers[d.key]
		switch {
		case called && kept:
			t.Errorf("testOnlyCallers names %s, which a program calls: drop it from the list", d.key)
		case !called && !kept:
			uncalled = append(uncalled, d.key+" ("+d.file+")")
		}
		exists[d.key] = true
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
