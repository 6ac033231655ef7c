package dsp

import (
	"fmt"
	"math"
)

// WindowKind selects a tapering window used before spectral analysis.
type WindowKind int

// Supported window kinds.
const (
	WindowRect WindowKind = iota
	WindowHann
	WindowHamming
	WindowBlackman
)

// String implements fmt.Stringer.
func (w WindowKind) String() string {
	switch w {
	case WindowRect:
		return "rect"
	case WindowHann:
		return "hann"
	case WindowHamming:
		return "hamming"
	case WindowBlackman:
		return "blackman"
	default:
		return fmt.Sprintf("WindowKind(%d)", int(w))
	}
}

// Window returns the n window coefficients for the given kind using the
// periodic (DFT-even) convention.
func Window(kind WindowKind, n int) []float64 {
	if n <= 0 {
		panic("dsp: Window requires n > 0")
	}
	return WindowInto(make([]float64, n), kind)
}

// WindowInto fills dst with the len(dst) window coefficients for the given
// kind (periodic convention) and returns dst — the allocation-free variant
// of Window for hot loops that hold their own scratch.
func WindowInto(dst []float64, kind WindowKind) []float64 {
	n := len(dst)
	if n <= 0 {
		panic("dsp: WindowInto requires len(dst) > 0")
	}
	w := dst
	switch kind {
	case WindowRect:
		for i := range w {
			w[i] = 1
		}
	case WindowHann:
		for i := range w {
			w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
		}
	case WindowHamming:
		for i := range w {
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n))
		}
	case WindowBlackman:
		for i := range w {
			x := 2 * math.Pi * float64(i) / float64(n)
			w[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		}
	default:
		panic(fmt.Sprintf("dsp: unknown window kind %v", kind))
	}
	return w
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
