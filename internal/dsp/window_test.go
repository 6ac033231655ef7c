package dsp

import (
	"testing"
)

func TestWindowHannEndpoints(t *testing.T) {
	for _, n := range []int{1, 7, 64} {
		for i, v := range Hann(n) {
			if v < 0 || v > 1 {
				t.Fatalf("n=%d: coefficient %d = %v outside [0,1]", n, i, v)
			}
		}
	}
	w := Hann(128)
	if !approxEq(w[0], 0, 1e-12) {
		t.Fatalf("periodic Hann should start at 0, got %v", w[0])
	}
	if !approxEq(w[64], 1, 1e-12) {
		t.Fatalf("periodic Hann midpoint should be 1, got %v", w[64])
	}
}

func TestWindowPanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("n=0", func() { Hann(0) })
	mustPanic("empty dst", func() { HannInto(nil) })
}

func TestApplyWindow(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	w := []float64{0.5, 0.5, 0.5, 0.5}
	got := ApplyWindow(x, w)
	want := []float64{0.5, 1, 1.5, 2}
	for i := range want {
		if !approxEq(got[i], want[i], 1e-12) {
			t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestApplyWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ApplyWindow(make([]float64, 3), make([]float64, 4))
}

// coherentGain returns the window's normalized DC gain, sum(w)/n.
func coherentGain(w []float64) float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	return s / float64(len(w))
}

// noiseBandwidth returns the window's equivalent noise bandwidth in bins,
// n·sum(w²)/sum(w)².
func noiseBandwidth(w []float64) float64 {
	var s, s2 float64
	for _, v := range w {
		s += v
		s2 += v * v
	}
	return float64(len(w)) * s2 / (s * s)
}

func TestCoherentGain(t *testing.T) {
	if g := coherentGain(Hann(4096)); !approxEq(g, 0.5, 1e-3) {
		t.Fatalf("Hann coherent gain = %v, want ≈0.5", g)
	}
}

func TestNoiseBandwidth(t *testing.T) {
	if nb := noiseBandwidth(Hann(4096)); !approxEq(nb, 1.5, 1e-2) {
		t.Fatalf("Hann ENBW = %v, want ≈1.5", nb)
	}
}

func TestHannReducesSpectralLeakage(t *testing.T) {
	// A tone between bins leaks badly with a rect window; Hann should
	// concentrate more of the energy near the true bin.
	const n = 256
	const fs = 25600.0
	freq := 10.5 * fs / n // halfway between bins 10 and 11
	x := realTone(n, freq, fs, 1, 0)
	rectSpec := Magnitudes(FFTReal(append([]float64(nil), x...)))
	hann := ApplyWindow(append([]float64(nil), x...), Hann(n))
	hannSpec := Magnitudes(FFTReal(hann))
	// Compare energy far from the tone (bins 30..n/2) relative to the peak.
	leak := func(spec []float64) float64 {
		peak := spec[10]
		if spec[11] > peak {
			peak = spec[11]
		}
		var far float64
		for k := 30; k < n/2; k++ {
			far += spec[k]
		}
		return far / peak
	}
	if leak(hannSpec) >= leak(rectSpec) {
		t.Fatalf("Hann leakage %v should beat rect %v", leak(hannSpec), leak(rectSpec))
	}
}
