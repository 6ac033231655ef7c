package dsp

import (
	"fmt"
)

// ParabolicPeak refines a discrete spectrum peak at index k using the
// three-point parabolic (quadratic) interpolation over mags[k-1..k+1].
// It returns the sub-bin offset δ ∈ [-0.5, 0.5] and the interpolated peak
// magnitude. Border peaks return δ=0. This is what turns FFT-bin range
// resolution into the paper's centimeter-level localization.
func ParabolicPeak(mags []float64, k int) (delta, peak float64) {
	if k <= 0 || k >= len(mags)-1 {
		if k < 0 || k >= len(mags) {
			panic(fmt.Sprintf("dsp: ParabolicPeak index %d out of range [0,%d)", k, len(mags)))
		}
		return 0, mags[k]
	}
	a, b, c := mags[k-1], mags[k], mags[k+1]
	den := a - 2*b + c
	if den == 0 {
		return 0, b
	}
	delta = 0.5 * (a - c) / den
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	peak = b - 0.25*(a-c)*delta
	return delta, peak
}

// MaxIndex returns the index of the largest element of x (first occurrence)
// and its value. It panics on empty input.
func MaxIndex(x []float64) (int, float64) {
	if len(x) == 0 {
		panic("dsp: MaxIndex on empty slice")
	}
	idx, best := 0, x[0]
	for i, v := range x[1:] {
		if v > best {
			best = v
			idx = i + 1
		}
	}
	return idx, best
}

// MaxIndexRange returns the index of the largest element within x[lo:hi]
// (half-open) and its value, in coordinates of x. It panics if the range is
// empty or out of bounds.
func MaxIndexRange(x []float64, lo, hi int) (int, float64) {
	if lo < 0 || hi > len(x) || lo >= hi {
		panic(fmt.Sprintf("dsp: MaxIndexRange [%d,%d) invalid for length %d", lo, hi, len(x)))
	}
	idx, best := lo, x[lo]
	for i := lo + 1; i < hi; i++ {
		if x[i] > best {
			best = x[i]
			idx = i
		}
	}
	return idx, best
}

// AutocorrelationInto writes the biased autocorrelation of x for lags
// 0..maxLag inclusive, r[l] = Σ x[i]·x[i+l] / n, into dst, which is grown as
// needed (pass the returned slice back in to reuse it). dst must not alias
// x. It is the direct-sum oracle FFTAutocorr is checked against.
func AutocorrelationInto(dst, x []float64, maxLag int) []float64 {
	if maxLag >= len(x) {
		maxLag = len(x) - 1
	}
	if maxLag < 0 {
		return nil
	}
	n := float64(len(x))
	r := Resize(dst, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		var acc float64
		for i := 0; i+lag < len(x); i++ {
			acc += x[i] * x[i+lag]
		}
		r[lag] = acc / n
	}
	return r
}
