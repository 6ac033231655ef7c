package eval

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"biscatter/internal/tag"
)

// fastOpts keeps the experiment smoke tests quick; trends are asserted, not
// publication statistics.
var fastOpts = Options{Frames: 8, Trials: 3, Seed: 3}

func TestRegistryLookup(t *testing.T) {
	if len(Registry) < 12 {
		t.Fatalf("registry has %d experiments", len(Registry))
	}
	for _, e := range Registry {
		if _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func parseBER(cell string) (float64, bool) {
	cell = strings.TrimPrefix(cell, "<")
	v, err := strconv.ParseFloat(cell, 64)
	return v, err == nil
}

func TestFig5LinearAndExact(t *testing.T) {
	res, err := Fig5(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 10 {
		t.Fatalf("expected 10 chirp durations, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		errPct, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if errPct > 2 || errPct < -2 {
			t.Fatalf("Eq.11 deviation %v%% too large in row %v", errPct, row)
		}
	}
}

func TestFig6AlignedWindowWins(t *testing.T) {
	res, err := Fig6(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("3 window strategies expected")
	}
	errOf := func(i int) float64 {
		v, err := strconv.ParseFloat(rows[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The aligned sub-chirp window must be accurate; the misaligned window
	// must be clearly biased. The oversized window is *ambiguous* in the
	// paper (chirp-rate lines may or may not capture the peak), so no
	// ordering is asserted for it.
	if errOf(2) > 1.0 {
		t.Fatalf("aligned window error %v kHz too large", errOf(2))
	}
	if errOf(1) < 2*errOf(2)+0.5 {
		t.Fatalf("misaligned window should be clearly biased: %v vs aligned %v", errOf(1), errOf(2))
	}
}

func TestFig7CorrectionAligns(t *testing.T) {
	res, err := Fig7(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	var naiveLo, naiveHi, corrLo, corrHi = 1e9, -1e9, 1e9, -1e9
	for _, row := range rows {
		nv, _ := strconv.ParseFloat(row[2], 64)
		cv, _ := strconv.ParseFloat(row[4], 64)
		naiveLo, naiveHi = min(naiveLo, nv), max(naiveHi, nv)
		corrLo, corrHi = min(corrLo, cv), max(corrHi, cv)
	}
	if naiveHi-naiveLo < 0.5 {
		t.Fatalf("naive readings should scatter widely, spread %v", naiveHi-naiveLo)
	}
	if corrHi-corrLo > 0.05 {
		t.Fatalf("corrected readings should align, spread %v", corrHi-corrLo)
	}
}

func TestFig10And11DelayFlat(t *testing.T) {
	res, err := Fig10And11(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		s11, _ := strconv.ParseFloat(row[1], 64)
		dt, _ := strconv.ParseFloat(row[3], 64)
		if s11 > -10 {
			t.Fatalf("S11 %v dB above -10", s11)
		}
		if dt < 1.2 || dt > 1.32 {
			t.Fatalf("ΔT %v ns strayed from ≈1.26", dt)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("4 systems expected")
	}
	last := rows[3]
	for _, cell := range last[1:6] {
		if cell != "yes" {
			t.Fatalf("BiScatter row should be all yes: %v", last)
		}
	}
}

func TestPowerNumbers(t *testing.T) {
	res, err := Power(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Tables[0].Render()
	if !strings.Contains(text, "48.0 mW") {
		t.Fatalf("continuous power missing:\n%s", text)
	}
	if !strings.Contains(text, "4.0 mW") {
		t.Fatalf("custom IC projection missing:\n%s", text)
	}
}

func TestDataRateTable(t *testing.T) {
	res, err := DataRate(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if rows[9][2] != "100.0 kbit/s" {
		t.Fatalf("10 bits at 100 µs should be 0.1 Mbit/s, got %q", rows[9][2])
	}
}

func TestDownlinkBERWaterfall(t *testing.T) {
	// More noise → more errors, the invariant behind Figs. 12–14.
	high, err := DownlinkBER(DownlinkSetup{SymbolBits: 5}, 25, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	low, err := DownlinkBER(DownlinkSetup{SymbolBits: 5}, 4, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if low.Rate() <= high.Rate() {
		t.Fatalf("BER should rise at low SNR: %v vs %v", low.Rate(), high.Rate())
	}
	if high.Rate() > 0.01 {
		t.Fatalf("BER at 25 dB should be near zero, got %v", high.Rate())
	}
	if low.Rate() < 0.05 {
		t.Fatalf("BER at 4 dB should be large, got %v", low.Rate())
	}
}

func TestDownlinkBERCapacityError(t *testing.T) {
	_, err := DownlinkBER(DownlinkSetup{SymbolBits: 10, Bandwidth: 250e6}, 25, 4, 1)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("expected capacity error, got %v", err)
	}
	if _, err := DownlinkBER(DownlinkSetup{}, 25, 0, 1); err == nil {
		t.Fatal("zero frames should fail")
	}
}

func TestDownlinkBERBandwidthTrend(t *testing.T) {
	// Fig. 12's core claim at a fixed symbol size: smaller bandwidth is
	// worse (beat spacing shrinks proportionally).
	narrow, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, Bandwidth: 250e6}, 20, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, Bandwidth: 1e9}, 20, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Rate() <= wide.Rate() {
		t.Fatalf("250 MHz (%v) should be worse than 1 GHz (%v)", narrow.Rate(), wide.Rate())
	}
}

func TestDownlinkBERDeltaLTrend(t *testing.T) {
	// Fig. 14's claim: shorter delay lines are worse at the same SNR.
	short, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, DeltaL: 18 * 0.0254}, 14, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	long, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, DeltaL: 45 * 0.0254}, 14, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if short.Rate() <= long.Rate() {
		t.Fatalf("18 in (%v) should be worse than 45 in (%v)", short.Rate(), long.Rate())
	}
}

func TestGoertzelBeatsFFTMethod(t *testing.T) {
	// The ablation claim: the matched-filter (Goertzel) decoder outperforms
	// the single-window FFT-peak classifier at moderate SNR.
	g, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, Method: tag.MethodGoertzel}, 16, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, Method: tag.MethodFFT}, 16, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rate() >= f.Rate() {
		t.Fatalf("goertzel (%v) should beat fft (%v)", g.Rate(), f.Rate())
	}
}

func TestFig15SNRDecreases(t *testing.T) {
	res, err := Fig15(Options{Frames: 4, Trials: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	first, ok1 := parseBER(rows[0][3])
	mid, ok2 := parseBER(rows[4][3])
	if !ok1 || !ok2 {
		t.Fatalf("unparseable SNR cells: %v %v", rows[0], rows[4])
	}
	if first <= mid {
		t.Fatalf("signature SNR should fall with distance: %v vs %v", first, mid)
	}
}

func TestFig16CentimeterLevel(t *testing.T) {
	res, err := Fig16(Options{Frames: 4, Trials: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		for _, cell := range row[1:3] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("cell %q", cell)
			}
			if v > 12 {
				t.Fatalf("localization error %v cm too large in row %v", v, row)
			}
		}
	}
}

func TestExtensionsExperiment(t *testing.T) {
	res, err := Extensions(Options{Frames: 6, Trials: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 {
		t.Fatalf("expected 3 tables, got %d", len(res.Tables))
	}
	// MSCK rows must carry more bits per chirp than the CSSK baseline.
	msckBits, _ := strconv.ParseFloat(res.Tables[0].Rows[2][1], 64)
	csskBits, _ := strconv.ParseFloat(res.Tables[0].Rows[0][1], 64)
	if msckBits <= csskBits {
		t.Fatalf("MSCK bits %v should exceed CSSK %v", msckBits, csskBits)
	}
	// TDMA column is always 100%.
	for _, row := range res.Tables[2].Rows {
		if row[1] != "100%" {
			t.Fatalf("TDMA utilization %q", row[1])
		}
	}
}
