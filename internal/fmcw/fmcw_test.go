package fmcw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"biscatter/internal/dsp"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func baseChirp() ChirpParams {
	return ChirpParams{
		StartFrequency: 9e9,
		Bandwidth:      1e9,
		Duration:       100e-6,
		SampleRate:     4e6,
	}
}

func TestChirpParamsValidate(t *testing.T) {
	good := baseChirp()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	baseband := ChirpParams{Bandwidth: 1e9, Duration: 1e-4, SampleRate: 1e6}
	if err := baseband.Validate(); err != nil {
		t.Errorf("baseband chirp (f0=0) should be valid: %v", err)
	}
	bad := []ChirpParams{
		{StartFrequency: 9e9, Duration: 1e-4, SampleRate: 1e6},                  // B missing
		{StartFrequency: 9e9, Bandwidth: 1e9, SampleRate: 1e6},                  // T missing
		{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 1e-4},                   // fs missing
		{StartFrequency: -9e9, Bandwidth: 1e9, Duration: 1e-4, SampleRate: 1e6}, // negative
		{StartFrequency: 9e9, Bandwidth: 1e9, Duration: -1e-4, SampleRate: 1e6}, // negative
		{StartFrequency: 9e9, Bandwidth: -1e9, Duration: 1e-4, SampleRate: 1e6}, // negative
		{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 1e-4, SampleRate: -1},   // negative
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestSlopeEquation(t *testing.T) {
	p := baseChirp()
	want := 1e9 / 100e-6
	if got := p.Slope(); !approxEq(got, want, 1) {
		t.Fatalf("slope %v, want %v", got, want)
	}
}

func TestIFFrequencyEquation3(t *testing.T) {
	p := baseChirp()
	r := 5.0
	want := 2 * p.Slope() * r / SpeedOfLight
	if got := p.IFFrequency(r); !approxEq(got, want, 1e-9) {
		t.Fatalf("fIF %v, want %v", got, want)
	}
}

func TestMaxRangeEquation4(t *testing.T) {
	p := baseChirp()
	want := p.SampleRate * SpeedOfLight * p.Duration / (2 * p.Bandwidth)
	if got := p.MaxRange(); !approxEq(got, want, 1e-9) {
		t.Fatalf("Rmax %v, want %v", got, want)
	}
	// Steeper chirps (shorter duration) shrink the unambiguous range.
	steep := p
	steep.Duration /= 2
	if steep.MaxRange() >= p.MaxRange() {
		t.Fatal("Rmax should shrink for steeper chirps")
	}
}

func TestRangeResolutionEquation5(t *testing.T) {
	p := baseChirp()
	if got := p.RangeResolution(); !approxEq(got, SpeedOfLight/2e9, 1e-9) {
		t.Fatalf("Rres %v", got)
	}
	// Resolution is independent of chirp duration — the motivation for CSSK
	// keeping bandwidth fixed.
	short := p
	short.Duration = 33e-6
	if short.RangeResolution() != p.RangeResolution() {
		t.Fatal("range resolution must not depend on duration")
	}
}

func TestCenterFrequencyAndWavelength(t *testing.T) {
	p := baseChirp()
	if got := p.CenterFrequency(); !approxEq(got, 9.5e9, 1) {
		t.Fatalf("center frequency %v", got)
	}
}

func TestSamplesPerChirp(t *testing.T) {
	p := baseChirp()
	if got := p.SamplesPerChirp(); got != 400 {
		t.Fatalf("samples per chirp %d, want 400", got)
	}
}

func TestFrameBuilderValidation(t *testing.T) {
	if _, err := NewFrameBuilder(baseChirp(), 0); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := NewFrameBuilder(ChirpParams{}, 120e-6); err == nil {
		t.Error("invalid base chirp should fail")
	}
}

func TestFrameBuilderDutyCycleEnforced(t *testing.T) {
	b, err := NewFrameBuilder(baseChirp(), 120e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build([]float64{100e-6}); err == nil {
		t.Fatal("chirp exceeding 80% duty cycle should be rejected")
	}
	if _, err := b.Build([]float64{96e-6}); err != nil {
		t.Fatalf("chirp at duty-cycle limit rejected: %v", err)
	}
	if _, err := b.Build([]float64{-1}); err == nil {
		t.Fatal("negative duration should be rejected")
	}
	if _, err := b.Build(nil); err == nil {
		t.Fatal("empty frame should be rejected")
	}
}

func TestFramePeriodInvariant(t *testing.T) {
	b, _ := NewFrameBuilder(baseChirp(), 120e-6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		durs := make([]float64, 1+rng.Intn(64))
		for i := range durs {
			durs[i] = 20e-6 + rng.Float64()*(b.MaxChirpDuration()-20e-6)
		}
		frame, err := b.Build(durs)
		if err != nil {
			return false
		}
		for _, c := range frame.Chirps {
			if !approxEq(c.Params.Duration+c.InterChirpDelay, 120e-6, 1e-12) {
				return false
			}
		}
		return approxEq(frame.Duration(), float64(len(durs))*120e-6, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUniform(t *testing.T) {
	b, _ := NewFrameBuilder(baseChirp(), 120e-6)
	frame, err := b.BuildUniform(16, 60e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame.Chirps) != 16 {
		t.Fatalf("chirp count %d", len(frame.Chirps))
	}
	for _, c := range frame.Chirps {
		if s := c.Params.Slope(); !approxEq(s, 1e9/60e-6, 1) {
			t.Fatalf("slope %v", s)
		}
	}
	if _, err := b.BuildUniform(0, 60e-6); err == nil {
		t.Fatal("zero chirps should fail")
	}
}

func TestChirpIndices(t *testing.T) {
	b, _ := NewFrameBuilder(baseChirp(), 120e-6)
	frame, _ := b.BuildUniform(5, 60e-6)
	for i, c := range frame.Chirps {
		if c.Index != i {
			t.Fatalf("chirp %d has index %d", i, c.Index)
		}
	}
}

func TestSynthesizeChirpInstantaneousFrequency(t *testing.T) {
	// Use a baseband sweep (f0 small) with a generous sample rate so the
	// phase derivative is measurable.
	p := ChirpParams{StartFrequency: 1e3, Bandwidth: 100e3, Duration: 10e-3, SampleRate: 1e6}
	x, err := SynthesizeChirp(p)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate instantaneous frequency from phase differences at 25% and 75%
	// through the sweep; it must match f0 + α·t.
	instFreq := func(i int) float64 {
		ph0 := math.Atan2(imag(x[i]), real(x[i]))
		ph1 := math.Atan2(imag(x[i+1]), real(x[i+1]))
		d := ph1 - ph0
		for d < -math.Pi {
			d += 2 * math.Pi
		}
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		return d * p.SampleRate / (2 * math.Pi)
	}
	for _, frac := range []float64{0.25, 0.75} {
		i := int(frac * float64(len(x)-2))
		tsec := float64(i) / p.SampleRate
		want := p.StartFrequency + p.Slope()*tsec
		if got := instFreq(i); !approxEq(got, want, 100) {
			t.Fatalf("at %.0f%%: instantaneous freq %v, want %v", frac*100, got, want)
		}
	}
}

func TestSynthesizeChirpRejectsInvalid(t *testing.T) {
	if _, err := SynthesizeChirp(ChirpParams{}); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestSynthesizeRealChirpIsRealPart(t *testing.T) {
	p := ChirpParams{StartFrequency: 1e3, Bandwidth: 10e3, Duration: 1e-3, SampleRate: 1e6}
	c, _ := SynthesizeChirp(p)
	r, err := SynthesizeRealChirp(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if r[i] != real(c[i]) {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestDelayedMixProducesExpectedBeat(t *testing.T) {
	// End-to-end waveform validation of the delay-line principle (Eq. 9):
	// delay a chirp by ΔT, mix with the undelayed copy, and verify the beat
	// frequency α·ΔT appears.
	p := ChirpParams{StartFrequency: 0, Bandwidth: 200e3, Duration: 20e-3, SampleRate: 2e6}
	x, err := SynthesizeChirp(p)
	if err != nil {
		t.Fatal(err)
	}
	const deltaT = 500e-6
	delayed, _ := DelaySamples(x, deltaT, p.SampleRate)
	ifSig := MixToIF(x, delayed)
	// Skip the leading transient where the delayed copy is zero.
	skip := int(deltaT*p.SampleRate) + 1
	spec := dsp.Magnitudes(dsp.FFT(ifSig[skip:]))
	n := len(spec)
	idx, _ := dsp.MaxIndexRange(spec, 1, n/2)
	gotBeat := dsp.BinFrequency(idx, n, p.SampleRate)
	wantBeat := p.Slope() * deltaT
	binWidth := p.SampleRate / float64(n)
	if math.Abs(gotBeat-wantBeat) > 2*binWidth {
		t.Fatalf("beat %v Hz, want %v Hz (bin width %v)", gotBeat, wantBeat, binWidth)
	}
}

func TestEnvelopeDetectRemovesDC(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	env := EnvelopeDetect(x)
	var sum float64
	for _, v := range env {
		sum += v
	}
	if !approxEq(sum, 0, 1e-12) {
		t.Fatalf("DC not removed: sum %v", sum)
	}
	if len(EnvelopeDetect(nil)) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestDelaySamplesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DelaySamples(make([]complex128, 4), -1, 1e6)
}

func TestPresets(t *testing.T) {
	for _, p := range []Preset{Radar9GHz(), Radar24GHz()} {
		if err := p.Chirp.Validate(); err != nil {
			t.Errorf("%s: invalid chirp: %v", p.Name, err)
		}
		if p.DefaultPeriod <= 0 || p.TxPowerDBm == 0 {
			t.Errorf("%s: incomplete preset %+v", p.Name, p)
		}
	}
	if Radar9GHz().Chirp.Bandwidth != 1e9 {
		t.Error("9 GHz preset should have 1 GHz bandwidth")
	}
	if Radar24GHz().Chirp.Bandwidth != 250e6 {
		t.Error("24 GHz preset should have 250 MHz bandwidth")
	}
}
