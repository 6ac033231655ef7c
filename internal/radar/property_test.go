package radar

import (
	"math"
	"testing"
	"testing/quick"
)

// TestLocalizationAccuracyProperty sweeps random tag ranges: at a strong
// echo the refined estimate must stay within 3 cm (about one eighth of the
// 15 cm range-resolution cell), which is the mechanism behind the paper's
// centimeter-level claim.
func TestLocalizationAccuracyProperty(t *testing.T) {
	r := testRadar(t, 40)
	b := testBuilder(t)
	const nChirps = 64
	const fMod = 2e3
	f := func(raw uint16) bool {
		dist := 1.0 + float64(raw%90)/10 // 1.0 … 9.9 m
		frame, err := b.BuildUniform(nChirps, 60e-6)
		if err != nil {
			return false
		}
		scene := Scene{Tags: []TagEcho{{
			Range:    dist,
			States:   toneStates(fMod, nChirps),
			PowerDBm: -95,
		}}}
		cap := r.Observe(frame, scene)
		cm, grid := r.CorrectedMatrix(cap)
		matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
		det, err := r.DetectTag(matrix, grid, fMod, tPeriod)
		if err != nil {
			return false
		}
		return math.Abs(det.Range-dist) < 0.03
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestUplinkRobustToMissingTrailingChirps truncates the capture (the radar
// stopped early): decoding must degrade gracefully, returning fewer bits
// rather than wrong ones.
func TestUplinkRobustToMissingTrailingChirps(t *testing.T) {
	r := testRadar(t, 41)
	b := testBuilder(t)
	const cpb = 32
	bits := []bool{true, false, true, true}
	nChirps := len(bits) * cpb
	mod := UplinkFSKConfig{F0: 1250, F1: 1770, ChirpsPerBit: cpb, Period: tPeriod}
	mkStates := func(n int) []bool {
		out := make([]bool, n)
		for k := 0; k < n; k++ {
			freq := mod.F0
			if bi := k / cpb; bi < len(bits) && bits[bi] {
				freq = mod.F1
			}
			out[k] = math.Mod(float64(k)*tPeriod*freq, 1) < 0.5
		}
		return out
	}
	// Full frame decodes all bits; a frame cut to 2.5 bit windows decodes 2.
	for _, chirps := range []int{nChirps, nChirps/2 + cpb/2} {
		frame, err := b.BuildUniform(chirps, 60e-6)
		if err != nil {
			t.Fatal(err)
		}
		scene := Scene{Tags: []TagEcho{{Range: 2.0, States: mkStates(chirps), PowerDBm: -95}}}
		cap := r.Observe(frame, scene)
		cm, grid := r.CorrectedMatrix(cap)
		matrix := MagnitudeMatrix(cm)
		det, err := r.DetectTag(matrix, grid, mod.F0, tPeriod)
		if err != nil {
			det, err = r.DetectTag(matrix, grid, mod.F1, tPeriod)
			if err != nil {
				t.Fatalf("chirps=%d: %v", chirps, err)
			}
		}
		got, err := r.DecodeUplinkFSK(matrix, det.Bin, mod)
		if err != nil {
			t.Fatal(err)
		}
		want := chirps / cpb
		if len(got) != want {
			t.Fatalf("chirps=%d: decoded %d bits, want %d", chirps, len(got), want)
		}
		for i := range got {
			if got[i] != bits[i] {
				t.Fatalf("chirps=%d: bit %d wrong", chirps, i)
			}
		}
	}
}
