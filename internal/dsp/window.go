package dsp

import "math"

// Hann returns the n periodic (DFT-even) Hann window coefficients,
// 0.5·(1 − cos(2πi/n)).
func Hann(n int) []float64 {
	if n <= 0 {
		panic("dsp: Hann requires n > 0")
	}
	return HannInto(make([]float64, n))
}

// HannInto fills dst with the len(dst) periodic Hann coefficients and
// returns dst — the allocation-free variant of Hann for hot loops that hold
// their own scratch.
func HannInto(dst []float64) []float64 {
	n := len(dst)
	if n <= 0 {
		panic("dsp: HannInto requires len(dst) > 0")
	}
	for i := range dst {
		dst[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	return dst
}

// ApplyWindow multiplies x element-wise by the window coefficients in place
// and returns x. len(w) must equal len(x).
func ApplyWindow(x, w []float64) []float64 {
	if len(x) != len(w) {
		panic("dsp: ApplyWindow length mismatch")
	}
	for i := range x {
		x[i] *= w[i]
	}
	return x
}
