package dsp

import "math"

// MovingAverageInto smooths x with a centered moving average of the given
// odd width, reflecting at the edges; width <= 1 copies x. It writes into
// dst, which is grown as needed (pass the returned slice back in to reuse
// it). dst must not alias x: the smoothing reads x while writing dst.
//
// Only the first and last half-width outputs need reflection; every
// interior window lies inside x and is summed by a branch-free loop in the
// same ascending order, over the same width, so the two paths agree bit for
// bit.
func MovingAverageInto(dst, x []float64, width int) []float64 {
	out := Resize(dst, len(x))
	if width <= 1 || len(x) == 0 {
		copy(out, x)
		return out
	}
	half := width / 2
	lo := min(half, len(x))
	hi := max(lo, len(x)-half)
	for i := 0; i < lo; i++ {
		out[i] = reflectedMean(x, i, half)
	}
	span := float64(2*half + 1)
	for i := lo; i < hi; i++ {
		var sum float64
		for _, v := range x[i-half : i+half+1] {
			sum += v
		}
		out[i] = sum / span
	}
	for i := hi; i < len(x); i++ {
		out[i] = reflectedMean(x, i, half)
	}
	return out
}

// reflectedMean is the mean of x over [i-half, i+half], mirroring indices
// that fall off either end and skipping any that still miss x.
func reflectedMean(x []float64, i, half int) float64 {
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
	return sum / float64(n)
}

// RemoveDC subtracts the mean of x in place and returns x.
func RemoveDC(x []float64) []float64 {
	if len(x) == 0 {
		return x
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
	return x
}

// RMS returns the root-mean-square value of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(x)))
}
