package fmcw

import (
	"fmt"
	"math"
)

// Waveform synthesis. These helpers produce phase-accurate baseband chirp
// samples. They exist mainly to validate the analytic shortcuts used by the
// tag and radar models (which never need full-rate waveforms), and to power
// the wired "chirp generator" experiment of Fig. 5.

// SynthesizeChirp returns complex baseband samples of one chirp:
// exp(j·2π(f0·t + α·t²/2)) sampled at p.SampleRate for p.Duration seconds.
// StartFrequency here is interpreted as a baseband offset (use 0 for a pure
// baseband sweep); pass the absolute f0 only for the small wired experiments
// where p.SampleRate is set high enough to satisfy Nyquist.
func SynthesizeChirp(p ChirpParams) ([]complex128, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.SamplesPerChirp()
	if n <= 0 {
		return nil, fmt.Errorf("fmcw: chirp too short for sample rate: %v", p)
	}
	alpha := p.Slope()
	out := make([]complex128, n)
	for i := range out {
		t := float64(i) / p.SampleRate
		ph := 2 * math.Pi * (p.StartFrequency*t + alpha*t*t/2)
		out[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	return out, nil
}

// SynthesizeRealChirp returns real-valued chirp samples cos(φ(t)), as
// produced by a real (non-IQ) chirp generator.
func SynthesizeRealChirp(p ChirpParams) ([]float64, error) {
	c, err := SynthesizeChirp(p)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out, nil
}

// DelaySamples returns a copy of x delayed by the given time, realized as an
// integer sample shift with zero fill; the fractional remainder is returned
// so callers can account for it. Used by the wired delay-line experiment.
func DelaySamples(x []complex128, delay, fs float64) (shifted []complex128, fracRemainder float64) {
	if delay < 0 {
		panic("fmcw: DelaySamples requires non-negative delay")
	}
	n := int(delay * fs)
	fracRemainder = delay - float64(n)/fs
	shifted = make([]complex128, len(x))
	copy(shifted[n:], x[:max(0, len(x)-n)])
	return shifted, fracRemainder
}

// MixToIF multiplies the transmitted chirp with the conjugate of the received
// signal — the radar's dechirp operation — returning the IF samples.
func MixToIF(tx, rx []complex128) []complex128 {
	n := min(len(tx), len(rx))
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		r := rx[i]
		out[i] = tx[i] * complex(real(r), -imag(r))
	}
	return out
}

// EnvelopeDetect models an ideal square-law envelope detector followed by
// DC removal: it returns |x[i]|² with the mean subtracted, which keeps the
// low-frequency beat while discarding the carrier, matching the
// splitter+detector equivalence to a mixer derived in §3.2.1 (Eq. 9).
func EnvelopeDetect(x []complex128) []float64 {
	out := make([]float64, len(x))
	var mean float64
	for i, v := range x {
		p := real(v)*real(v) + imag(v)*imag(v)
		out[i] = p
		mean += p
	}
	if len(out) > 0 {
		mean /= float64(len(out))
		for i := range out {
			out[i] -= mean
		}
	}
	return out
}
