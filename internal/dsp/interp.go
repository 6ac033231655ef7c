package dsp

import (
	"fmt"
)

// ResampleCubic resamples the uniformly spaced signal ys (samples at
// srcX[i] = srcStart + i·srcStep) onto the query grid dstX using Catmull-Rom
// cubic interpolation, clamping at the edges. Compared to linear
// interpolation the reconstruction error on smooth spectra drops from
// O(Δ²) to O(Δ⁴) — which matters when resampled strong-clutter profiles are
// subtracted across chirps and the residue must stay below a weak tag echo.
func ResampleCubic(ys []float64, srcStart, srcStep float64, dstX []float64) []float64 {
	return ResampleCubicInto(make([]float64, len(dstX)), ys, srcStart, srcStep, dstX)
}

// ResampleCubicInto is ResampleCubic writing into dst, which must have
// length len(dstX) and must not alias ys. It returns dst. This is the
// per-chirp IF-correction primitive, so the hot path feeds it worker-arena
// scratch instead of allocating two NFFT-sized vectors per chirp.
func ResampleCubicInto(dst, ys []float64, srcStart, srcStep float64, dstX []float64) []float64 {
	if srcStep <= 0 {
		panic(fmt.Sprintf("dsp: ResampleCubic requires srcStep > 0, got %v", srcStep))
	}
	if len(dst) != len(dstX) {
		panic("dsp: ResampleCubicInto length mismatch")
	}
	out := dst
	n := len(ys)
	if n == 0 {
		clear(out)
		return out
	}
	at := func(i int) float64 {
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return ys[i]
	}
	for i, x := range dstX {
		pos := (x - srcStart) / srcStep
		switch {
		case pos <= 0:
			out[i] = ys[0]
		case pos >= float64(n-1):
			out[i] = ys[n-1]
		default:
			j := int(pos)
			t := pos - float64(j)
			p0, p1, p2, p3 := at(j-1), at(j), at(j+1), at(j+2)
			out[i] = p1 + 0.5*t*(p2-p0+t*(2*p0-5*p1+4*p2-p3+t*(3*(p1-p2)+p3-p0)))
		}
	}
	return out
}

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
