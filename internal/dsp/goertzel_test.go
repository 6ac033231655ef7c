package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func realTone(n int, freq, fs, amp, phase float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Cos(2*math.Pi*freq*float64(i)/fs+phase)
	}
	return x
}

func TestGoertzelMatchesDFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 128
	const fs = 1000.0
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	spec := DFT(cx)
	for _, k := range []int{1, 5, 17, 40, 63} {
		freq := float64(k) * fs / n
		got := Goertzel(x, freq, fs)
		// Goertzel's phase reference differs from the DFT by a rotation of
		// exp(2πik(n-1)/n)·... — compare magnitudes, which is what every
		// consumer in this codebase uses.
		if !approxEq(cmplxAbs(got), cmplxAbs(spec[k]), 1e-6*float64(n)) {
			t.Fatalf("bin %d: Goertzel |%v| vs DFT |%v|", k, cmplxAbs(got), cmplxAbs(spec[k]))
		}
	}
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestGoertzelPowerPeaksAtToneFrequency(t *testing.T) {
	const n = 500
	const fs = 1e6
	const tone = 50e3
	x := realTone(n, tone, fs, 1, 0.3)
	pAt := GoertzelPower(x, tone, fs)
	pOff := GoertzelPower(x, tone+40e3, fs)
	if pAt < 100*pOff {
		t.Fatalf("tone power %v not dominant over off-tone %v", pAt, pOff)
	}
}

func TestGoertzelEmptyInput(t *testing.T) {
	if Goertzel(nil, 100, 1000) != 0 {
		t.Fatal("empty input should yield 0")
	}
}

func BenchmarkGoertzel1000(b *testing.B) {
	x := realTone(1000, 50e3, 1e6, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GoertzelPower(x, 50e3, 1e6)
	}
}
