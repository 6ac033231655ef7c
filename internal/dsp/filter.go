package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a direct-form finite impulse response filter. The zero value
// is not usable; build one with NewLowPassFIR or from explicit taps.
type FIRFilter struct {
	taps  []float64
	state []float64
	pos   int
}

// NewFIRFilter builds a filter from explicit taps.
func NewFIRFilter(taps []float64) (*FIRFilter, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR filter needs at least one tap")
	}
	return &FIRFilter{
		taps:  append([]float64(nil), taps...),
		state: make([]float64, len(taps)),
	}, nil
}

// NewLowPassFIR designs a windowed-sinc low-pass FIR filter with the given
// cutoff frequency (Hz), sample rate fs (Hz) and tap count (odd counts give
// linear phase with an integer group delay). A Hamming window controls
// sidelobes. This models the envelope detector's internal low-pass filter.
func NewLowPassFIR(cutoff, fs float64, ntaps int) (*FIRFilter, error) {
	if ntaps <= 0 {
		return nil, fmt.Errorf("dsp: low-pass FIR needs ntaps > 0, got %d", ntaps)
	}
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: low-pass cutoff %v Hz outside (0, fs/2=%v)", cutoff, fs/2)
	}
	taps := make([]float64, ntaps)
	fc := cutoff / fs
	mid := float64(ntaps-1) / 2
	var sum float64
	for i := range taps {
		x := float64(i) - mid
		var s float64
		if x == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*x) / (math.Pi * x)
		}
		// Hamming window.
		wnd := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(ntaps-1))
		if ntaps == 1 {
			wnd = 1
		}
		taps[i] = s * wnd
		sum += taps[i]
	}
	// Normalize to unity DC gain.
	for i := range taps {
		taps[i] /= sum
	}
	return NewFIRFilter(taps)
}

// Taps returns a copy of the filter taps.
func (f *FIRFilter) Taps() []float64 { return append([]float64(nil), f.taps...) }

// GroupDelay returns the filter's group delay in samples ((ntaps-1)/2 for the
// linear-phase designs produced here).
func (f *FIRFilter) GroupDelay() float64 { return float64(len(f.taps)-1) / 2 }

// Reset clears the filter state.
func (f *FIRFilter) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
	f.pos = 0
}

// Process filters one sample.
func (f *FIRFilter) Process(v float64) float64 {
	f.state[f.pos] = v
	var acc float64
	idx := f.pos
	for _, t := range f.taps {
		acc += t * f.state[idx]
		idx--
		if idx < 0 {
			idx = len(f.state) - 1
		}
	}
	f.pos++
	if f.pos == len(f.state) {
		f.pos = 0
	}
	return acc
}

// ProcessBlock filters a block of samples, returning a new slice. The filter
// state persists across calls, so a long signal may be fed in chunks.
func (f *FIRFilter) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// MovingAverage smooths x with a centered moving average of the given odd
// width, reflecting at the edges. width <= 1 returns a copy.
func MovingAverage(x []float64, width int) []float64 {
	return MovingAverageInto(nil, x, width)
}

// MovingAverageInto is MovingAverage writing into dst, which is grown as
// needed (pass the returned slice back in to reuse it). dst must not alias
// x: the smoothing reads x while writing dst.
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

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(x))
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
