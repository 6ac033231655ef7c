// Package fmcw models Frequency Modulated Continuous Wave radar waveforms:
// chirp parameters, the range equations used throughout the BiScatter paper
// (Eqs. 3–5), frame schedules with per-chirp slopes and inter-chirp delays,
// and a phase-accurate baseband chirp synthesizer used to validate the
// analytic models.
//
// Convention: a chirp sweeps Bandwidth hertz in Duration seconds, so the
// chirp slope is α = B/T (Hz/s) and the instantaneous frequency is
// f(t) = f0 + α·t. The transmitted phase is φ(t) = 2π(f0·t + α·t²/2).
package fmcw

import (
	"fmt"
	"math"
)

// SpeedOfLight is the propagation speed used for all range math (m/s).
const SpeedOfLight = 299792458.0

// ChirpParams describes a single FMCW chirp.
type ChirpParams struct {
	// StartFrequency is the sweep start frequency f0 in Hz (e.g. 9 GHz).
	StartFrequency float64
	// Bandwidth is the swept bandwidth B in Hz. BiScatter keeps this fixed
	// across symbols to preserve range resolution (§3.1).
	Bandwidth float64
	// Duration is the chirp duration T_chirp in seconds. CSSK varies this
	// (and hence the slope) to encode downlink symbols.
	Duration float64
	// SampleRate is the radar IF sampling rate fs in Hz.
	SampleRate float64
}

// Validate checks that the parameters describe a physical chirp.
func (p ChirpParams) Validate() error {
	switch {
	case p.StartFrequency < 0:
		return fmt.Errorf("fmcw: start frequency %v Hz must be non-negative", p.StartFrequency)
	case p.Bandwidth <= 0:
		return fmt.Errorf("fmcw: bandwidth %v Hz must be positive", p.Bandwidth)
	case p.Duration <= 0:
		return fmt.Errorf("fmcw: duration %v s must be positive", p.Duration)
	case p.SampleRate <= 0:
		return fmt.Errorf("fmcw: sample rate %v Hz must be positive", p.SampleRate)
	}
	return nil
}

// Slope returns the chirp slope α = B/T_chirp in Hz/s.
func (p ChirpParams) Slope() float64 {
	return p.Bandwidth / p.Duration
}

// CenterFrequency returns f0 + B/2 in Hz, used for wavelength-dependent link
// budget terms.
func (p ChirpParams) CenterFrequency() float64 {
	return p.StartFrequency + p.Bandwidth/2
}

// IFFrequency returns the dechirped beat frequency for a reflector at
// distance r meters (Eq. 3): f_IF = 2·α·r/c.
func (p ChirpParams) IFFrequency(r float64) float64 {
	return 2 * p.Slope() * r / SpeedOfLight
}

// MaxRange returns the maximum unambiguous range (Eq. 4):
// R_max = fs·c·T_chirp / (2B). It shrinks as the chirp gets steeper, which is
// exactly the ambiguity CSSK introduces and the IF correction removes.
func (p ChirpParams) MaxRange() float64 {
	return p.SampleRate * SpeedOfLight * p.Duration / (2 * p.Bandwidth)
}

// RangeResolution returns the range resolution (Eq. 5): R_res = c/(2B).
// It depends only on bandwidth, which is why CSSK fixes B.
func (p ChirpParams) RangeResolution() float64 {
	return SpeedOfLight / (2 * p.Bandwidth)
}

// SamplesPerChirp returns the number of IF samples captured during one chirp.
func (p ChirpParams) SamplesPerChirp() int {
	return int(math.Round(p.SampleRate * p.Duration))
}

// String implements fmt.Stringer.
func (p ChirpParams) String() string {
	return fmt.Sprintf("fmcw.Chirp{f0=%.3f GHz B=%.0f MHz T=%.1f µs fs=%.1f MHz}",
		p.StartFrequency/1e9, p.Bandwidth/1e6, p.Duration*1e6, p.SampleRate/1e6)
}
