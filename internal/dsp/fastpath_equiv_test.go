package dsp

import (
	"math"
	"math/rand"
	"testing"

	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/fmcw"
)

// These tests are the oracle harness for the single-core fast path: every
// restructured kernel (real FFT, hoisted Goertzel, FFT autocorrelation,
// tone-table matched filter) is pinned against the straightforward
// implementation it replaced. Bit-exact kernels compare with Float64bits;
// float-breaking ones (FFT-order changes) compare under an explicit relative
// tolerance, mirroring the golden vectors' tolerance modes.

// relTol is the bound for transform-order-only differences. The FFT pair and
// the direct sum agree to ~1e-13 at the sizes the decoder uses; 1e-10 leaves
// headroom for adversarial inputs without masking real bugs.
const relTol = 1e-10

func randSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsComplex(x []complex128) float64 {
	m := 0.0
	for _, c := range x {
		if a := math.Hypot(real(c), imag(c)); a > m {
			m = a
		}
	}
	return m
}

// TestRealFFTMatchesComplexFFT pins RealFFTPlan.ForwardInto against the
// complex FFTPlan on the same input: the packed half-spectrum must equal
// bins [0, n/2] of the full transform up to FFT rounding.
func TestRealFFTMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 32, 128, 512, 2048} {
		x := randSignal(rng, n)
		plan, err := RealPlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		half := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(half, x)

		full := FFTReal(x)
		scale := maxAbsComplex(full)
		for k := 0; k <= n/2; k++ {
			if d := math.Hypot(real(half[k]-full[k]), imag(half[k]-full[k])); d > relTol*scale {
				t.Errorf("n=%d bin %d: rFFT %v, FFT %v (|Δ|=%g)", n, k, half[k], full[k], d)
			}
		}
	}
}

// TestRealFFTMatchesDFTOracle checks the real transform against the O(n²)
// direct DFT on small sizes, independent of the FFT implementation both
// plans share.
func TestRealFFTMatchesDFTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 8, 16, 32} {
		x := randSignal(rng, n)
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := DFT(cx)
		plan, err := RealPlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(got, x)
		scale := maxAbsComplex(want)
		for k := 0; k <= n/2; k++ {
			if d := math.Hypot(real(got[k]-want[k]), imag(got[k]-want[k])); d > relTol*scale {
				t.Errorf("n=%d bin %d: rFFT %v, DFT %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestRealFFTRoundTrip drives ForwardInto → InverseInto and requires the
// original signal back, including for denormal and saturated samples.
func TestRealFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 4, 16, 256, 1024} {
		x := randSignal(rng, n)
		// Exercise extreme magnitudes the fuzz corpus cares about.
		x[0] = 5e-324
		if n >= 4 {
			x[3] = 1e300
		}
		plan, err := RealPlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		spec := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(spec, x)
		back := make([]float64, n)
		plan.InverseInto(back, spec)
		scale := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > relTol*scale {
				t.Errorf("n=%d sample %d: round trip %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

// TestRealFFTPlanValidation rejects sizes that are not powers of two ≥ 2.
func TestRealFFTPlanValidation(t *testing.T) {
	for _, n := range []int{-4, 0, 1, 3, 6, 12, 100} {
		if _, err := NewRealFFTPlan(n); err == nil {
			t.Errorf("NewRealFFTPlan(%d) accepted a bad size", n)
		}
	}
}

// TestGoertzelMatchesFFTBinPower pins the tag's few-bin demodulator against
// the full transform: at integer bin frequencies k·fs/n the Goertzel power
// must equal |FFT(x)[k]|². This is the equivalence that justifies replacing
// per-window FFTs with per-candidate Goertzel sweeps on the hot path.
func TestGoertzelMatchesFFTBinPower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const fs = 4e6
	for _, n := range []int{16, 64, 256, 1024} {
		x := randSignal(rng, n)
		spec := FFTReal(x)
		power := 0.0
		for _, c := range spec {
			if p := real(c)*real(c) + imag(c)*imag(c); p > power {
				power = p
			}
		}
		for _, k := range []int{1, 2, n / 4, n/2 - 1} {
			freq := float64(k) * fs / float64(n)
			got := GoertzelPower(x, freq, fs)
			want := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
			// The Goertzel recurrence is less numerically tame than the FFT;
			// scale the tolerance with n.
			tol := 1e-9 * float64(n) * power
			if math.Abs(got-want) > tol {
				t.Errorf("n=%d k=%d: Goertzel power %v, FFT bin power %v", n, k, got, want)
			}
		}
	}
}

// TestGoertzelWithMatchesGoertzel proves the coefficient hoist is a pure
// refactor: GoertzelWith on precomputed constants is bit-identical to the
// original per-call form, which is itself now defined through it.
func TestGoertzelWithMatchesGoertzel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const fs = 4e6
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		x := randSignal(rng, n)
		freq := rng.Float64() * fs / 2
		c := NewGoertzelCoeff(freq, fs)
		a := Goertzel(x, freq, fs)
		b := GoertzelWith(x, c)
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("trial %d: Goertzel %v, GoertzelWith %v", trial, a, b)
		}
		p := GoertzelPowerWith(x, c)
		q := real(b)*real(b) + imag(b)*imag(b)
		if math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("trial %d: GoertzelPowerWith %v, |z|² %v", trial, p, q)
		}
	}
}

// TestFFTAutocorrMatchesDirect pins the Wiener–Khinchin autocorrelation
// against the direct O(n·maxLag) sum it replaced, including odd and
// power-of-two±1 lengths and the maxLag clamping edge cases.
func TestFFTAutocorrMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ac FFTAutocorr
	cases := []struct{ n, maxLag int }{
		{1, 0}, {2, 1}, {3, 5}, {7, 3}, {17, 16},
		{255, 40}, {256, 40}, {257, 40},
		{1000, 999}, {30000, 1000},
	}
	for _, c := range cases {
		x := randSignal(rng, c.n)
		want := AutocorrelationInto(nil, x, c.maxLag)
		got := ac.Into(nil, x, c.maxLag)
		if len(got) != len(want) {
			t.Fatalf("n=%d maxLag=%d: %d lags, want %d", c.n, c.maxLag, len(got), len(want))
		}
		scale := math.Abs(want[0]) // lag 0 is the signal power, the natural scale
		if scale == 0 {
			scale = 1
		}
		for l := range want {
			if math.Abs(got[l]-want[l]) > relTol*scale {
				t.Errorf("n=%d lag %d: FFT %v, direct %v", c.n, l, got[l], want[l])
			}
		}
	}
	if r := ac.Into(nil, nil, 5); r != nil {
		t.Errorf("empty input: got %v, want nil", r)
	}
}

// presetAlphabets constructs the CSSK constellations the integration stack
// builds for each radar platform preset, at the symbol widths the golden
// exchanges use.
func presetAlphabets(t *testing.T) map[string]*cssk.Alphabet {
	t.Helper()
	out := make(map[string]*cssk.Alphabet)
	for _, p := range []fmcw.Preset{fmcw.Radar9GHz(), fmcw.Radar24GHz()} {
		pair, err := delayline.NewCoaxPair(45*delayline.MetersPerInch, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cal := delayline.FromPair(pair, p.Chirp.CenterFrequency())
		for _, bits := range []int{3, 5} {
			a, err := cssk.NewAlphabet(cssk.Config{
				Bandwidth:        p.Chirp.Bandwidth,
				Period:           p.DefaultPeriod,
				MinChirpDuration: 20e-6,
				DeltaT:           cal.EffectiveDeltaT,
				MinBeatSpacing:   500,
				SymbolBits:       bits,
			})
			if err != nil {
				t.Fatalf("%s %d bits: %v", p.Name, bits, err)
			}
			out[p.Name+"/"+string(rune('0'+bits))+"bit"] = a
		}
	}
	return out
}

// TestToneTableMatchesRealToneEnergy pins the cached matched filter against
// the original per-call evaluation, bit for bit, for every beat frequency of
// every preset alphabet plus the decoder's fine-scan grid around each
// symbol. This is the equivalence contract the ToneTable doc comment cites.
func TestToneTableMatchesRealToneEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const fs = 1e6
	x := randSignal(rng, 512)
	for name, a := range presetAlphabets(t) {
		spacing := a.MinSpacing()
		for _, beat := range a.Beats() {
			for f := beat - 1.5*spacing; f <= beat+1.5*spacing; f += spacing / 10 {
				if f <= 0 || f >= fs/2 {
					continue
				}
				tab := NewToneTable(f, fs, 0)
				for _, n := range []int{0, 1, 5, 64, 512} {
					got := tab.EnergyAt(x[:n])
					want := RealToneEnergy(x[:n], f, fs)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s f=%v n=%d: ToneTable %v, RealToneEnergy %v", name, f, n, got, want)
					}
				}
			}
		}
	}
}

// TestToneTableGrowthOrderIndependent proves a table's values do not depend
// on the sequence of Grow calls that produced them: growing in small steps
// yields the same energies as one fresh table at the final size.
func TestToneTableGrowthOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const fs = 1e6
	const freq = 31250.5
	x := randSignal(rng, 300)
	grown := NewToneTable(freq, fs, 0)
	for _, n := range []int{3, 10, 17, 100, 300} {
		grown.Grow(n)
	}
	fresh := NewToneTable(freq, fs, 300)
	for _, n := range []int{1, 3, 10, 17, 99, 100, 300} {
		a := grown.EnergyAt(x[:n])
		b := fresh.EnergyAt(x[:n])
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("n=%d: grown-in-steps %v, fresh %v", n, a, b)
		}
	}
	if grown.Freq() != freq || grown.Cap() != 300 {
		t.Fatalf("table metadata: freq %v cap %d", grown.Freq(), grown.Cap())
	}
}

// reflectedMovingAverage is the per-sample reflected loop MovingAverageInto
// ran at every index before its interior went branch-free — reproduced
// verbatim as the oracle.
func reflectedMovingAverage(x []float64, width int) []float64 {
	out := make([]float64, len(x))
	if width <= 1 || len(x) == 0 {
		copy(out, x)
		return out
	}
	half := width / 2
	for i := range x {
		var sum float64
		var n int
		for j := i - half; j <= i+half; j++ {
			k := j
			if k < 0 {
				k = -k
			}
			if k >= len(x) {
				k = 2*len(x) - 2 - k
			}
			if k < 0 || k >= len(x) {
				continue
			}
			sum += x[k]
			n++
		}
		out[i] = sum / float64(n)
	}
	return out
}

// TestMovingAverageMatchesReflectedLoop pins the split edge/interior
// MovingAverageInto bit for bit against the reflected loop at every width
// 1–64, on inputs shorter than, equal to and longer than the window.
func TestMovingAverageMatchesReflectedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var dst []float64
	for width := 1; width <= 64; width++ {
		for _, n := range []int{1, 2, width / 2, width - 1, width, width + 1, 2*width + 3, 300} {
			if n < 1 {
				continue
			}
			x := randSignal(rng, n)
			want := reflectedMovingAverage(x, width)
			dst = MovingAverageInto(dst, x, width)
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("width %d n %d index %d: %v, reflected loop %v", width, n, i, dst[i], want[i])
				}
			}
		}
	}
}
