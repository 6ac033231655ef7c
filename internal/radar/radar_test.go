package radar

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"biscatter/internal/channel"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/tag"
)

const (
	tPeriod = 120e-6
)

func testRadar(t testing.TB, seed int64) *Radar {
	t.Helper()
	r, err := New(Config{
		Chirp: fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6},
		Link:  channel.DefaultLink(),
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testBuilder(t testing.TB) *fmcw.FrameBuilder {
	t.Helper()
	b, err := fmcw.NewFrameBuilder(
		fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6},
		tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// toneStates returns n per-chirp states toggling at fMod.
func toneStates(fMod float64, n int) []bool {
	out := make([]bool, n)
	for k := range out {
		out[k] = math.Mod(float64(k)*tPeriod*fMod, 1) < 0.5
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config should fail")
	}
	good := Config{
		Chirp: fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6},
		Link:  channel.DefaultLink(),
	}
	bad := good
	bad.NFFT = 1000
	if _, err := New(bad); err == nil {
		t.Error("non-power-of-two NFFT should fail")
	}
	bad = good
	bad.RangeBins = 2
	if _, err := New(bad); err == nil {
		t.Error("tiny RangeBins should fail")
	}
	r, err := New(good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().NFFT != 4096 || r.Config().RangeBins != 512 {
		t.Fatalf("defaults not applied: %+v", r.Config())
	}
}

func TestObserveDimensionsAndDeterminism(t *testing.T) {
	b := testBuilder(t)
	frame, _ := b.BuildUniform(8, 60e-6)
	scene := Scene{Clutter: channel.OfficeClutter()}
	c1 := testRadar(t, 5).Observe(frame, scene)
	c2 := testRadar(t, 5).Observe(frame, scene)
	if len(c1.IF) != 8 {
		t.Fatalf("chirp count %d", len(c1.IF))
	}
	for i := range c1.IF {
		if len(c1.IF[i]) != 240 {
			t.Fatalf("chirp %d has %d samples, want 240", i, len(c1.IF[i]))
		}
		for k := range c1.IF[i] {
			if c1.IF[i][k] != c2.IF[i][k] {
				t.Fatal("same seed must reproduce the capture")
			}
		}
	}
}

func TestRawRangeProfilePeakAtReflector(t *testing.T) {
	r := testRadar(t, 6)
	b := testBuilder(t)
	frame, _ := b.BuildUniform(4, 60e-6)
	const dist = 4.0
	scene := Scene{Clutter: []channel.Reflector{{Range: dist, RCSdBsm: 10}}}
	cap := r.Observe(frame, scene)
	mags, ranges := r.RawRangeProfile(cap, 0)
	idx, _ := dsp.MaxIndex(mags[1:]) // skip DC
	got := ranges[idx+1]
	if math.Abs(got-dist) > 0.2 {
		t.Fatalf("reflector at %v m detected at %v m", dist, got)
	}
}

func TestRawProfilesDisagreeAcrossSlopesFig7a(t *testing.T) {
	// The Fig. 7(a) ambiguity: the same reflector lands on different FFT
	// bins for different chirp slopes.
	r := testRadar(t, 7)
	b := testBuilder(t)
	frame, err := b.Build([]float64{40e-6, 80e-6})
	if err != nil {
		t.Fatal(err)
	}
	scene := Scene{Clutter: []channel.Reflector{{Range: 5, RCSdBsm: 10}}}
	cap := r.Observe(frame, scene)
	m0, _ := r.RawRangeProfile(cap, 0)
	m1, _ := r.RawRangeProfile(cap, 1)
	i0, _ := dsp.MaxIndex(m0[1:])
	i1, _ := dsp.MaxIndex(m1[1:])
	if i0 == i1 {
		t.Fatalf("different slopes should put the peak in different bins, both at %d", i0)
	}
	// But the per-chirp range conversion (Eq. 15) must agree.
	_, r0 := r.RawRangeProfile(cap, 0)
	_, r1 := r.RawRangeProfile(cap, 1)
	if math.Abs(r0[i0+1]-r1[i1+1]) > 0.3 {
		t.Fatalf("per-slope ranges disagree: %v vs %v", r0[i0+1], r1[i1+1])
	}
}

func TestCorrectedMatrixAlignsSlopesFig7b(t *testing.T) {
	// After IF correction, every chirp's profile peaks on the same common
	// grid bin regardless of slope.
	r := testRadar(t, 8)
	b := testBuilder(t)
	frame, err := b.Build([]float64{30e-6, 50e-6, 70e-6, 96e-6})
	if err != nil {
		t.Fatal(err)
	}
	scene := Scene{Clutter: []channel.Reflector{{Range: 3.5, RCSdBsm: 10}}}
	cap := r.Observe(frame, scene)
	matrix, grid := r.CorrectedMatrix(cap)
	var peaks []int
	for i := range matrix {
		mags := make([]float64, len(matrix[i]))
		for j, v := range matrix[i] {
			mags[j] = math.Hypot(real(v), imag(v))
		}
		idx, _ := dsp.MaxIndexRange(mags, 2, len(mags))
		peaks = append(peaks, idx)
	}
	for _, p := range peaks[1:] {
		if absInt(p-peaks[0]) > 1 {
			t.Fatalf("corrected peaks not aligned: %v", peaks)
		}
	}
	if math.Abs(grid[peaks[0]]-3.5) > 0.1 {
		t.Fatalf("corrected peak at %v m, want 3.5", grid[peaks[0]])
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestRangeGridBounds(t *testing.T) {
	r := testRadar(t, 9)
	b := testBuilder(t)
	frame, _ := b.Build([]float64{20e-6, 96e-6})
	grid := make([]float64, 512)
	r.rangeGridInto(grid, frame)
	// Common grid must not exceed the steepest chirp's unambiguous range
	// (12 m for 20 µs at 4 MHz / 1 GHz).
	if grid[len(grid)-1] >= 12.0 {
		t.Fatalf("grid extends to %v m, beyond the steepest chirp's Rmax", grid[len(grid)-1])
	}
	if grid[0] != 0 {
		t.Fatal("grid must start at zero")
	}
}

func TestSubtractBackgroundRemovesStaticClutter(t *testing.T) {
	r := testRadar(t, 10)
	b := testBuilder(t)
	frame, _ := b.BuildUniform(16, 60e-6)
	scene := Scene{Clutter: []channel.Reflector{{Range: 3.2, RCSdBsm: 10}}}
	cap := r.Observe(frame, scene)
	matrix, grid := r.CorrectedMatrix(cap)
	// Locate the clutter bin before subtraction.
	bin := 0
	for grid[bin] < 3.2 {
		bin++
	}
	before := math.Hypot(real(matrix[3][bin]), imag(matrix[3][bin]))
	SubtractBackground(matrix)
	after := math.Hypot(real(matrix[3][bin]), imag(matrix[3][bin]))
	if after > before/10 {
		t.Fatalf("clutter only dropped from %v to %v", before, after)
	}
}

func TestRangeDopplerShape(t *testing.T) {
	r := testRadar(t, 11)
	b := testBuilder(t)
	frame, _ := b.BuildUniform(20, 60e-6)
	cap := r.Observe(frame, Scene{})
	matrix, _ := r.CorrectedMatrix(cap)
	rd := r.RangeDoppler(matrix)
	if len(rd) != 32 { // next pow2 of 20
		t.Fatalf("doppler bins %d, want 32", len(rd))
	}
	if len(rd[0]) != 512 {
		t.Fatalf("range bins %d, want 512", len(rd[0]))
	}
}

func TestRangeDopplerShowsModulationTone(t *testing.T) {
	r := testRadar(t, 12)
	b := testBuilder(t)
	const nChirps = 64
	const fMod = 2e3
	frame, _ := b.BuildUniform(nChirps, 60e-6)
	scene := Scene{Tags: []TagEcho{{
		Range:    3.0,
		States:   toneStates(fMod, nChirps),
		PowerDBm: -100,
	}}}
	cap := r.Observe(frame, scene)
	matrix, grid := r.CorrectedMatrix(cap)
	rd := r.RangeDoppler(matrix)
	// Find the tag's range bin.
	bin := 0
	for grid[bin] < 3.0 {
		bin++
	}
	// The slow-time spectrum at that bin must peak at ±fMod (bin index
	// fMod/chirpRate·nfft), not at DC-adjacent bins.
	nfft := len(rd)
	chirpRate := 1 / tPeriod
	modBin := int(math.Round(fMod / chirpRate * float64(nfft)))
	peakVal := rd[modBin][bin]
	offVal := rd[modBin/2][bin]
	if peakVal < 3*offVal {
		t.Fatalf("modulation tone not visible: peak %v vs off-tone %v", peakVal, offVal)
	}
}

func TestDetectTagLocalizationAccuracy(t *testing.T) {
	// Centimeter-level accuracy at a strong echo, the Fig. 16 claim.
	r := testRadar(t, 13)
	b := testBuilder(t)
	const nChirps = 64
	const fMod = 2e3
	for _, dist := range []float64{1.0, 2.5, 4.0, 6.5} {
		frame, _ := b.BuildUniform(nChirps, 60e-6)
		scene := Scene{
			Clutter: channel.OfficeClutter(),
			Tags: []TagEcho{{
				Range:    dist,
				States:   toneStates(fMod, nChirps),
				PowerDBm: -95,
			}},
		}
		cap := r.Observe(frame, scene)
		cm, grid := r.CorrectedMatrix(cap)
		matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
		det, err := r.DetectTag(matrix, grid, fMod, tPeriod)
		if err != nil {
			t.Fatalf("dist %v: %v", dist, err)
		}
		if math.Abs(det.Range-dist) > 0.05 {
			t.Fatalf("dist %v: estimated %v m (error %.1f cm)", dist, det.Range, math.Abs(det.Range-dist)*100)
		}
	}
}

func TestDetectTagWithCSSKFrames(t *testing.T) {
	// Localization must survive varying chirp slopes (the integrated mode),
	// thanks to IF correction.
	r := testRadar(t, 14)
	b := testBuilder(t)
	const nChirps = 64
	const fMod = 2e3
	rng := rand.New(rand.NewSource(15))
	durs := make([]float64, nChirps)
	for i := range durs {
		durs[i] = 20e-6 + rng.Float64()*76e-6
	}
	frame, err := b.Build(durs)
	if err != nil {
		t.Fatal(err)
	}
	const dist = 3.7
	scene := Scene{
		Clutter: channel.OfficeClutter(),
		Tags:    []TagEcho{{Range: dist, States: toneStates(fMod, nChirps), PowerDBm: -95}},
	}
	cap := r.Observe(frame, scene)
	cm, grid := r.CorrectedMatrix(cap)
	matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
	det, err := r.DetectTag(matrix, grid, fMod, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det.Range-dist) > 0.06 {
		t.Fatalf("CSSK-mode localization error %.1f cm", math.Abs(det.Range-dist)*100)
	}
}

func TestDetectTagNotFound(t *testing.T) {
	r := testRadar(t, 16)
	b := testBuilder(t)
	frame, _ := b.BuildUniform(32, 60e-6)
	cap := r.Observe(frame, Scene{Clutter: channel.OfficeClutter()})
	cm, grid := r.CorrectedMatrix(cap)
	matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
	if _, err := r.DetectTag(matrix, grid, 2e3, tPeriod); !errors.Is(err, ErrTagNotFound) {
		t.Fatalf("expected ErrTagNotFound, got %v", err)
	}
}

func TestDecodeUplinkFSKRoundTrip(t *testing.T) {
	r := testRadar(t, 17)
	b := testBuilder(t)
	mod, err := tag.NewModulator(tag.SchemeFSK, 1e3, 2.5e3, tPeriod, 32)
	if err != nil {
		t.Fatal(err)
	}
	bits := []bool{true, false, true, true, false, false, true, false}
	nChirps := len(bits) * mod.ChirpsPerBit
	states := mod.StatesInto(nil, bits, tPeriod, nChirps)
	frame, _ := b.BuildUniform(nChirps, 60e-6)
	const dist = 2.8
	scene := Scene{Tags: []TagEcho{{Range: dist, States: states, PowerDBm: -100}}}
	cap := r.Observe(frame, scene)
	cm, grid := r.CorrectedMatrix(cap)
	matrix := MagnitudeMatrix(cm)
	det, err := r.DetectTag(matrix, grid, 1e3, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.DecodeUplinkFSK(matrix, det.Bin, UplinkFSKConfig{
		F0: 1e3, F1: 2.5e3, ChirpsPerBit: mod.ChirpsPerBit, Period: tPeriod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bits) {
		t.Fatalf("decoded %d bits, want %d", len(got), len(bits))
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d: got %v want %v (%v)", i, got[i], bits[i], got)
		}
	}
}

func TestDecodeUplinkFSKPropertyAcrossPayloads(t *testing.T) {
	r := testRadar(t, 18)
	b := testBuilder(t)
	mod, _ := tag.NewModulator(tag.SchemeFSK, 1e3, 2.5e3, tPeriod, 32)
	f := func(raw uint8) bool {
		bits := make([]bool, 6)
		for i := range bits {
			bits[i] = raw&(1<<uint(i)) != 0
		}
		nChirps := len(bits) * mod.ChirpsPerBit
		states := mod.StatesInto(nil, bits, tPeriod, nChirps)
		frame, err := b.BuildUniform(nChirps, 60e-6)
		if err != nil {
			return false
		}
		scene := Scene{Tags: []TagEcho{{Range: 2.0, States: states, PowerDBm: -98}}}
		cap := r.Observe(frame, scene)
		cm, grid := r.CorrectedMatrix(cap)
		matrix := MagnitudeMatrix(cm)
		det, err := r.DetectTag(matrix, grid, 1e3, tPeriod)
		if err != nil {
			// All-ones payloads have no F0 energy; fall back to F1 search.
			det, err = r.DetectTag(matrix, grid, 2.5e3, tPeriod)
			if err != nil {
				return false
			}
		}
		got, err := r.DecodeUplinkFSK(matrix, det.Bin, UplinkFSKConfig{
			F0: 1e3, F1: 2.5e3, ChirpsPerBit: mod.ChirpsPerBit, Period: tPeriod,
		})
		if err != nil || len(got) != len(bits) {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeUplinkOOKRoundTrip(t *testing.T) {
	r := testRadar(t, 19)
	b := testBuilder(t)
	mod, err := tag.NewModulator(tag.SchemeOOK, 2e3, 0, tPeriod, 32)
	if err != nil {
		t.Fatal(err)
	}
	bits := []bool{true, false, true, false, false, true}
	nChirps := len(bits) * mod.ChirpsPerBit
	states := mod.StatesInto(nil, bits, tPeriod, nChirps)
	frame, _ := b.BuildUniform(nChirps, 60e-6)
	scene := Scene{Tags: []TagEcho{{Range: 3.1, States: states, PowerDBm: -100}}}
	cap := r.Observe(frame, scene)
	cm, grid := r.CorrectedMatrix(cap)
	matrix := MagnitudeMatrix(cm)
	det, err := r.DetectTag(matrix, grid, 2e3, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.DecodeUplinkOOK(matrix, det.Bin, 2e3, mod.ChirpsPerBit, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d: got %v want %v", i, got[i], bits[i])
		}
	}
}

func TestDecodeUplinkValidation(t *testing.T) {
	r := testRadar(t, 20)
	matrix := [][]float64{{1, 2}, {3, 4}}
	if _, err := r.DecodeUplinkFSK(matrix, 0, UplinkFSKConfig{F0: 1e3, F1: 2e3, ChirpsPerBit: 1, Period: tPeriod}); err == nil {
		t.Error("chirpsPerBit=1 should fail")
	}
	if _, err := r.DecodeUplinkFSK(matrix, 5, UplinkFSKConfig{F0: 1e3, F1: 2e3, ChirpsPerBit: 2, Period: tPeriod}); err == nil {
		t.Error("out-of-range bin should fail")
	}
	if _, err := r.DecodeUplinkOOK(matrix, 0, 1e3, 1, tPeriod); err == nil {
		t.Error("OOK chirpsPerBit=1 should fail")
	}
	if _, err := r.DecodeUplinkOOK(matrix, 9, 1e3, 2, tPeriod); err == nil {
		t.Error("OOK out-of-range bin should fail")
	}
}

func TestMultiTagSeparationByModulationFrequency(t *testing.T) {
	// Two tags at different ranges with unique modulation frequencies must
	// be individually localizable (§6 multi-tag extension).
	r := testRadar(t, 21)
	b := testBuilder(t)
	const nChirps = 128
	frame, _ := b.BuildUniform(nChirps, 60e-6)
	scene := Scene{Tags: []TagEcho{
		{Range: 2.0, States: toneStates(1.5e3, nChirps), PowerDBm: -98},
		{Range: 5.0, States: toneStates(3e3, nChirps), PowerDBm: -102},
	}}
	cap := r.Observe(frame, scene)
	cm, grid := r.CorrectedMatrix(cap)
	matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
	d1, err := r.DetectTag(matrix, grid, 1.5e3, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.DetectTag(matrix, grid, 3e3, tPeriod)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1.Range-2.0) > 0.06 || math.Abs(d2.Range-5.0) > 0.06 {
		t.Fatalf("multi-tag localization: %v m and %v m", d1.Range, d2.Range)
	}
}

// The shared median helper lives in dsp (dsp.Median) and is tested there.
