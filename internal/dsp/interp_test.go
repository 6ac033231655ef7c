package dsp

import (
	"testing"
)

func TestParabolicPeakRecoversSubBinOffset(t *testing.T) {
	// Sample a parabola y = 1 - (x-x0)² at integer points; the interpolator
	// must recover x0 exactly.
	for _, x0 := range []float64{5.0, 5.2, 4.7, 5.49} {
		mags := make([]float64, 11)
		for i := range mags {
			d := float64(i) - x0
			mags[i] = 1 - d*d
		}
		k, _ := MaxIndex(mags)
		delta, peak := ParabolicPeak(mags, k)
		if !approxEq(float64(k)+delta, x0, 1e-9) {
			t.Fatalf("x0=%v: recovered %v", x0, float64(k)+delta)
		}
		if peak < mags[k] {
			t.Fatalf("x0=%v: interpolated peak %v below bin value %v", x0, peak, mags[k])
		}
	}
}

func TestParabolicPeakAtBorders(t *testing.T) {
	mags := []float64{3, 2, 1}
	if d, p := ParabolicPeak(mags, 0); d != 0 || p != 3 {
		t.Fatalf("border peak: d=%v p=%v", d, p)
	}
}

func TestParabolicPeakOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ParabolicPeak([]float64{1, 2, 3}, 5)
}

func TestMaxIndexRange(t *testing.T) {
	x := []float64{9, 1, 5, 7, 2}
	idx, v := MaxIndexRange(x, 1, 4)
	if idx != 3 || v != 7 {
		t.Fatalf("got idx=%d v=%v", idx, v)
	}
}

func TestAutocorrelationZeroLagIsEnergy(t *testing.T) {
	x := []float64{1, -2, 3}
	r := AutocorrelationInto(nil, x, 2)
	if !approxEq(r[0], (1+4+9)/3.0, 1e-12) {
		t.Fatalf("r[0]=%v", r[0])
	}
}
