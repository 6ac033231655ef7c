package radar

import (
	"fmt"

	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
)

// EstimateVelocity measures the radial velocity of the scatterer in the
// given range bin by locating the slow-time Doppler peak of the complex
// corrected matrix: Doppler frequency f_d = 2v/λ, sampled at the chirp
// rate. It requires a fixed-slope (sensing-mode) frame — under CSSK the
// per-chirp window length decoheres the slow-time phase (see
// MagnitudeMatrix) and Doppler must come from a dedicated sensing frame.
//
// The unambiguous velocity span is ±λ/(4·T_period); ±4 m/s at 9.5 GHz with
// the 120 µs period, plenty for indoor robots.
func (r *Radar) EstimateVelocity(matrix [][]complex128, bin int, period float64) (float64, error) {
	n := len(matrix)
	if n < 8 {
		return 0, fmt.Errorf("radar: need at least 8 chirps for Doppler, got %d", n)
	}
	if bin < 0 || bin >= len(matrix[0]) {
		return 0, fmt.Errorf("radar: range bin %d out of bounds", bin)
	}
	nfft := dsp.NextPowerOfTwo(4 * n) // zero-pad for a finer peak
	plan, err := dsp.PlanFor(nfft)
	if err != nil {
		return 0, err
	}
	col := dsp.Resize(r.scr.velCol, nfft)
	w := dsp.HannInto(dsp.Resize(r.scr.velWin, n))
	mags := dsp.Resize(r.scr.velMags, nfft)
	r.scr.velCol, r.scr.velWin, r.scr.velMags = col, w, mags
	for i := 0; i < n; i++ {
		col[i] = matrix[i][bin] * complex(w[i], 0)
	}
	clear(col[n:])
	plan.ForwardInto(col, col)
	dsp.MagnitudesInto(mags, col)
	idx, _ := dsp.MaxIndex(mags)
	delta, _ := dsp.ParabolicPeak(mags, idx)
	chirpRate := 1 / period
	fd := dsp.BinFrequency(idx, nfft, chirpRate) + delta*chirpRate/float64(nfft)
	lambda := fmcw.SpeedOfLight / r.cfg.Chirp.CenterFrequency()
	return fd * lambda / 2, nil
}

// MaxUnambiguousVelocity returns ±λ/(4·T_period), the Doppler aliasing
// bound for the given chirp period.
func (r *Radar) MaxUnambiguousVelocity(period float64) float64 {
	lambda := fmcw.SpeedOfLight / r.cfg.Chirp.CenterFrequency()
	return lambda / (4 * period)
}

// StrongestBin returns the range bin with the largest mean power across the
// frame, a convenience for single-target Doppler tests and demos.
func StrongestBin(matrix [][]complex128) int {
	if len(matrix) == 0 {
		return -1
	}
	nBins := len(matrix[0])
	best, bestP := 0, -1.0
	for b := 0; b < nBins; b++ {
		var p float64
		for i := range matrix {
			v := matrix[i][b]
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		if p > bestP {
			bestP, best = p, b
		}
	}
	return best
}
