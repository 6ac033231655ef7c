package dsp

import (
	"math"
)

// Goertzel evaluates the DFT of x at a single normalized frequency
// freq/fs ∈ [0, 0.5] and returns the complex bin value, matching
// DFT(x)[k] for k = freq·len(x)/fs when that is an integer.
//
// The Goertzel algorithm is the low-power point-by-point DFT evaluator the
// paper proposes for the tag MCU (§3.2.2): the tag only cares about a handful
// of candidate beat frequencies, so evaluating those bins directly is much
// cheaper than a full FFT.
func Goertzel(x []float64, freq, fs float64) complex128 {
	return GoertzelWith(x, NewGoertzelCoeff(freq, fs))
}

// GoertzelCoeff holds the per-frequency constants of the Goertzel
// recurrence — the recurrence coefficient and the finalization cos/sin —
// so scans that evaluate the same tone over many windows (the radar's
// per-range-bin signature sweep, the FSK bit demodulator) hoist the trig
// out of their inner loops. GoertzelWith(x, NewGoertzelCoeff(f, fs)) is
// bit-identical to Goertzel(x, f, fs): same constants, same recurrence.
type GoertzelCoeff struct {
	coeff, cw, sw float64
}

// NewGoertzelCoeff precomputes the Goertzel constants for one normalized
// frequency freq/fs.
func NewGoertzelCoeff(freq, fs float64) GoertzelCoeff {
	w := 2 * math.Pi * freq / fs
	cw := math.Cos(w)
	return GoertzelCoeff{coeff: 2 * cw, cw: cw, sw: math.Sin(w)}
}

// GoertzelWith evaluates the single-bin DFT with precomputed constants; see
// Goertzel.
func GoertzelWith(x []float64, c GoertzelCoeff) complex128 {
	if len(x) == 0 {
		return 0
	}
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + c.coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Standard non-integer-k finalization.
	return complex(s1*c.cw-s2, s1*c.sw)
}

// GoertzelPowerWith returns |GoertzelWith(x, c)|².
func GoertzelPowerWith(x []float64, c GoertzelCoeff) float64 {
	z := GoertzelWith(x, c)
	return real(z)*real(z) + imag(z)*imag(z)
}

// GoertzelPower returns |Goertzel(x, freq, fs)|².
func GoertzelPower(x []float64, freq, fs float64) float64 {
	c := Goertzel(x, freq, fs)
	return real(c)*real(c) + imag(c)*imag(c)
}
