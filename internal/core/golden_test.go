package core

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"biscatter/internal/fmcw"
	"biscatter/internal/radar"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden vector files under testdata/golden")

// hexFloat renders a float64 exactly (hexadecimal mantissa/exponent form),
// so golden comparisons are byte-exact with no decimal rounding ambiguity.
func hexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

func bitString(bits []bool) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// goldenNode is one node's slice of a golden exchange record.
type goldenNode struct {
	PayloadHex   string `json:"payload_hex"`
	DownlinkErr  string `json:"downlink_err,omitempty"`
	UplinkBits   string `json:"uplink_bits"`
	UplinkErr    string `json:"uplink_err,omitempty"`
	DetectionBin int    `json:"detection_bin"`
	DetRangeHex  string `json:"detection_range_hex"`
	DetSNRHex    string `json:"detection_snr_db_hex"`
	DetectionErr string `json:"detection_err,omitempty"`
}

// goldenPeak is one range-Doppler peak (sensing-mode frame, background
// subtracted), power in exact hex-float form.
type goldenPeak struct {
	Doppler  int    `json:"doppler"`
	Bin      int    `json:"bin"`
	PowerHex string `json:"power_hex"`
}

// goldenDoc is the serialized known-good output of one preset's fixed
// exchange + sensing round.
type goldenDoc struct {
	Preset     string       `json:"preset"`
	Seed       int64        `json:"seed"`
	SymbolBits int          `json:"symbol_bits"`
	SentHex    string       `json:"sent_hex"`
	Nodes      []goldenNode `json:"nodes"`
	Peaks      []goldenPeak `json:"peaks"`
}

// goldenCase pins one fmcw preset to a fixed workload. The 24 GHz platform
// has only 250 MHz of bandwidth, so it runs the Fig. 17 3-bit constellation;
// the 9 GHz platform runs the paper's headline 5-bit operating point.
//
// tolerance selects the comparison mode for the case's vector file:
// "" (exact, the default) requires byte equality; "ulp:N" and "rel:eps"
// allow *_hex float fields to drift within the stated bound while every
// other field — and the document structure itself — stays exact. A case may
// only carry a tolerance when a property test pins the equivalence of the
// transform that makes its floats drift (see testdata/golden/README note on
// 9ghz_diag.json).
type goldenCase struct {
	file       string
	preset     fmcw.Preset
	symbolBits int
	nodes      []NodeConfig
	seed       int64
	tolerance  string
	diag       bool // serialize decoder diagnostics instead of decode outputs
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			file:       "9ghz.json",
			preset:     fmcw.Radar9GHz(),
			symbolBits: 5,
			nodes:      []NodeConfig{{ID: 1, Range: 1.8}, {ID: 2, Range: 3.4}},
			seed:       42,
		},
		{
			file:       "24ghz.json",
			preset:     fmcw.Radar24GHz(),
			symbolBits: 3,
			nodes:      []NodeConfig{{ID: 1, Range: 1.5}, {ID: 2, Range: 2.9}},
			seed:       42,
		},
		{
			// Decoder diagnostics under the rel tolerance: PeriodSamples
			// is the header-window path's edge fit, and its coarse period
			// flows through the FFT autocorrelation, whose only difference
			// from the direct sum is transform rounding (~1e-13 relative —
			// TestFFTAutocorrMatchesDirect in internal/dsp pins it). 1e-9
			// gives three decades of headroom while still catching any
			// structural change to the period search. ChirpStart and the
			// symbol count stay integer-exact even in this mode.
			file:       "9ghz_diag.json",
			preset:     fmcw.Radar9GHz(),
			symbolBits: 5,
			nodes:      []NodeConfig{{ID: 1, Range: 1.8}, {ID: 2, Range: 3.4}},
			seed:       42,
			tolerance:  "rel:1e-9",
			diag:       true,
		},
	}
}

// goldenRun executes the fixed workload for one case and serializes every
// decode-relevant output.
func goldenRun(t *testing.T, gc goldenCase) []byte {
	t.Helper()
	n, err := NewNetwork(Config{
		Preset:     gc.preset,
		SymbolBits: gc.symbolBits,
		Nodes:      gc.nodes,
		Seed:       gc.seed,
		Workers:    1,
	})
	if err != nil {
		t.Fatalf("%s: NewNetwork: %v", gc.preset.Name, err)
	}
	payload := RandomPayload(gc.seed, 8)
	uplink := map[int][]bool{
		0: {true, false, true, true},
		1: {false, true, true, false},
	}
	res, err := n.Exchange(payload, uplink)
	if err != nil {
		t.Fatalf("%s: Exchange: %v", gc.preset.Name, err)
	}
	doc := goldenDoc{
		Preset:     gc.preset.Name,
		Seed:       gc.seed,
		SymbolBits: gc.symbolBits,
		SentHex:    hex.EncodeToString(payload),
	}
	for _, nr := range res.Nodes {
		doc.Nodes = append(doc.Nodes, goldenNode{
			PayloadHex:   hex.EncodeToString(nr.DownlinkPayload),
			DownlinkErr:  errString(nr.DownlinkErr),
			UplinkBits:   bitString(nr.UplinkBits),
			UplinkErr:    errString(nr.UplinkErr),
			DetectionBin: nr.Detection.Bin,
			DetRangeHex:  hexFloat(nr.Detection.Range),
			DetSNRHex:    hexFloat(nr.Detection.SNRdB),
			DetectionErr: errString(nr.DetectionErr),
		})
	}
	doc.Peaks = goldenPeaks(t, n)

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// goldenDiagNode is one node's decoder-pipeline diagnostics.
type goldenDiagNode struct {
	PeriodSamplesHex string `json:"period_samples_hex"`
	ChirpStart       int    `json:"chirp_start"`
	Symbols          int    `json:"symbols"`
}

// goldenDiagDoc pins the tag decoder's intermediate estimates — the values
// the rel-tolerance mode exists for, since the period estimate rides on the
// FFT autocorrelation.
type goldenDiagDoc struct {
	Preset     string           `json:"preset"`
	Seed       int64            `json:"seed"`
	SymbolBits int              `json:"symbol_bits"`
	Nodes      []goldenDiagNode `json:"nodes"`
}

// goldenDiagRun executes the same fixed workload as goldenRun but
// serializes the per-node decoder diagnostics instead of the decode outputs.
func goldenDiagRun(t *testing.T, gc goldenCase) []byte {
	t.Helper()
	n, err := NewNetwork(Config{
		Preset:     gc.preset,
		SymbolBits: gc.symbolBits,
		Nodes:      gc.nodes,
		Seed:       gc.seed,
		Workers:    1,
	})
	if err != nil {
		t.Fatalf("%s: NewNetwork: %v", gc.preset.Name, err)
	}
	payload := RandomPayload(gc.seed, 8)
	uplink := map[int][]bool{
		0: {true, false, true, true},
		1: {false, true, true, false},
	}
	res, err := n.Exchange(payload, uplink)
	if err != nil {
		t.Fatalf("%s: Exchange: %v", gc.preset.Name, err)
	}
	doc := goldenDiagDoc{Preset: gc.preset.Name, Seed: gc.seed, SymbolBits: gc.symbolBits}
	for _, nr := range res.Nodes {
		doc.Nodes = append(doc.Nodes, goldenDiagNode{
			PeriodSamplesHex: hexFloat(nr.DownlinkDiag.PeriodSamples),
			ChirpStart:       nr.DownlinkDiag.ChirpStart,
			Symbols:          nr.DownlinkDiag.Symbols,
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// goldenPeaks runs a sensing-mode frame through the full radar pipeline
// (observe → IF correction → background subtraction → range-Doppler) and
// returns the strongest 8 cells. Order is by descending power with a
// (doppler, bin) tie-break, so the list is fully deterministic.
func goldenPeaks(t *testing.T, n *Network) []goldenPeak {
	t.Helper()
	frame, err := n.BuildSensingFrame(32)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := n.buildScene(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	capt := n.Radar().Observe(frame, scene)
	cm, _ := n.Radar().CorrectedMatrix(capt)
	rd := n.Radar().RangeDoppler(radar.SubtractBackground(cm))
	var peaks []goldenPeak
	for d := range rd {
		for b := range rd[d] {
			peaks = append(peaks, goldenPeak{Doppler: d, Bin: b, PowerHex: hexFloat(rd[d][b])})
		}
		// Keep the candidate pool bounded: per Doppler row only the top 8
		// bins can survive the global top-8 cut.
		sort.Slice(peaks, func(i, j int) bool { return goldenPeakLess(rd, peaks[i], peaks[j]) })
		if len(peaks) > 8 {
			peaks = peaks[:8]
		}
	}
	return peaks
}

func goldenPeakLess(rd [][]float64, a, b goldenPeak) bool {
	pa, pb := rd[a.Doppler][a.Bin], rd[b.Doppler][b.Bin]
	if pa != pb {
		return pa > pb
	}
	if a.Doppler != b.Doppler {
		return a.Doppler < b.Doppler
	}
	return a.Bin < b.Bin
}

// TestGoldenVectors pins the full decode + sensing output of each fmcw
// preset — byte-exactly by default, or under the case's declared tolerance
// mode for vectors downstream of provably-equivalent float-breaking
// transforms. Run with -update to regenerate after an intentional
// signal-path change; any unintentional diff is a regression.
func TestGoldenVectors(t *testing.T) {
	for _, gc := range goldenCases() {
		name := gc.preset.Name
		if gc.diag {
			name += "/diag"
		}
		t.Run(name, func(t *testing.T) {
			var got []byte
			if gc.diag {
				got = goldenDiagRun(t, gc)
			} else {
				got = goldenRun(t, gc)
			}
			path := filepath.Join("testdata", "golden", gc.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (run go test -run TestGoldenVectors -update ./internal/core): %v", path, err)
			}
			mode, err := parseTolerance(gc.tolerance)
			if err != nil {
				t.Fatalf("golden case %s: %v", gc.file, err)
			}
			if err := compareGolden(got, want, mode); err != nil {
				t.Errorf("golden mismatch for %s (%s): %v\n got: %s\nwant: %s", path, mode, err, got, want)
			}
		})
	}
}
