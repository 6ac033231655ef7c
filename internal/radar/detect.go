package radar

import (
	"context"
	"errors"
	"fmt"
	"math"

	"biscatter/internal/dsp"
)

// ErrTagNotFound means no range bin carried the expected modulation
// signature above the detection threshold.
var ErrTagNotFound = errors.New("radar: tag signature not found")

// DetectionThreshold is the required ratio between the signature peak and
// the median signature power across range bins. The extreme-value statistics
// of a few hundred noise bins reach ≈10× the median, so the threshold sits
// above that.
const DetectionThreshold = 20.0

// Detection is the result of the matched-filter tag search.
type Detection struct {
	// Range is the refined tag range estimate in meters.
	Range float64
	// Bin is the range bin of the peak.
	Bin int
	// SNRdB is the signature power at the peak over the median signature
	// power across bins — the detection confidence.
	SNRdB float64
}

// SidelobeGuard is the half-width in range bins around a signature peak
// excluded when measuring the peak-to-sidelobe ratio; it covers the
// mainlobe spread of the windowed, resampled range response.
const SidelobeGuard = 3

// DetectionDiag reports the radar-side quality of one matched-filter tag
// search — the uplink mirror of the tag decoder's Diagnostics. It says why
// a detection (and hence an uplink decode) succeeded or failed: how strong
// the signature peak was against the noise floor the threshold is applied
// to, and how cleanly it stood above the next-best range bin.
type DetectionDiag struct {
	// PeakBin is the range bin the diagnostics describe — the winning bin,
	// or the best candidate when detection failed.
	PeakBin int
	// PeakPower is the signature power at PeakBin.
	PeakPower float64
	// MedianPower is the median signature power across range bins, the
	// noise estimate DetectionThreshold is applied against.
	MedianPower float64
	// PeakToSidelobeDB is PeakPower over the strongest signature outside
	// ±SidelobeGuard bins of the peak, in dB. Higher means a cleaner, less
	// ambiguous fix; values near zero flag near-far ambiguity with another
	// scatterer or node.
	PeakToSidelobeDB float64
}

// SignatureDiagWithMedian computes detection-quality diagnostics for a
// signature profile and a candidate peak bin, given the profile's median
// power (the detection loops compute it for thresholding anyway). A bin
// outside the profile yields the zero diagnostics.
func SignatureDiagWithMedian(prof []float64, bin int, median float64) DetectionDiag {
	d := DetectionDiag{PeakBin: bin}
	if bin < 0 || bin >= len(prof) {
		return d
	}
	d.PeakPower = prof[bin]
	d.MedianPower = median
	side := 0.0
	for b, v := range prof {
		if (b < bin-SidelobeGuard || b > bin+SidelobeGuard) && v > side {
			side = v
		}
	}
	if side > 0 && d.PeakPower > 0 {
		d.PeakToSidelobeDB = 10 * math.Log10(d.PeakPower/side)
	}
	return d
}

// MagnitudeMatrix converts a corrected complex matrix into per-chirp
// magnitude range profiles. Slow-time (across-chirp) processing runs on
// magnitudes: with CSSK the per-chirp window length enters the spectral
// phase, so complex profiles of different slopes decohere, while magnitudes
// stay aligned after IF correction — static clutter contributes only DC and
// the tag's switching contributes the modulation tone.
func MagnitudeMatrix(matrix [][]complex128) [][]float64 {
	return MagnitudeMatrixInto(nil, matrix)
}

// MagnitudeMatrixInto is MagnitudeMatrix writing into dst, growing it as
// needed; pass the returned matrix back in to reuse its rows across frames.
func MagnitudeMatrixInto(dst [][]float64, matrix [][]complex128) [][]float64 {
	dst = dsp.EnsureRows(dst, len(matrix))
	out := dst[:len(matrix)]
	for i, row := range matrix {
		m := dsp.Resize(out[i], len(row))
		for j, v := range row {
			m[j] = math.Hypot(real(v), imag(v))
		}
		out[i] = m
	}
	return out
}

// SubtractBackgroundMag subtracts the first chirp's magnitude profile from
// every row in place and returns the matrix — the paper's first-chirp
// background subtraction (§3.3) in the magnitude domain.
func SubtractBackgroundMag(matrix [][]float64) [][]float64 {
	m, _ := SubtractBackgroundMagInto(matrix, nil)
	return m
}

// SubtractBackgroundMagInto is SubtractBackgroundMag with caller-provided
// scratch for the background row snapshot; it returns the matrix and the
// (possibly grown) scratch for reuse.
func SubtractBackgroundMagInto(matrix [][]float64, bg []float64) ([][]float64, []float64) {
	if len(matrix) == 0 {
		return matrix, bg
	}
	bg = dsp.Resize(bg, len(matrix[0]))
	copy(bg, matrix[0])
	for i := range matrix {
		for j := range matrix[i] {
			matrix[i][j] -= bg[j]
		}
	}
	return matrix, bg
}

// SignatureProfilesInto computes, for every range bin and every modulation
// frequency in freqs, the power of that tone across slow time. The tag's
// square-wave switching concentrates power at its modulation frequency (the
// sinc signature of §3.3), so this is the matched-filter statistic. Each
// range bin's slow-time column is gathered once and every tone's Goertzel
// recurrence runs over that same column, with the per-tone trig constants
// hoisted out of the bin loop. The per-bin scans fan out across the radar's
// worker pool and each bin is written by index, so the profiles are
// bit-identical for any worker count.
//
// It returns exactly one row per frequency, each one bin per range bin of
// the matrix (no bins when the matrix has no chirps), reusing dst's row
// storage; rows follow the usual radar-owned-scratch ownership rules.
func (r *Radar) SignatureProfilesInto(dst [][]float64, matrix [][]float64, freqs []float64, period float64) [][]float64 {
	sp := r.tel.matched.Span()
	defer sp.End()
	out := dsp.EnsureRows(dst, len(freqs))[:len(freqs)]
	nBins := 0
	if len(matrix) > 0 {
		nBins = len(matrix[0])
	}
	for i := range out {
		out[i] = dsp.Resize(out[i], nBins)
	}
	if nBins == 0 || len(freqs) == 0 {
		return out
	}
	chirpRate := 1 / period
	coeffs := dsp.Resize(r.scr.coeffs, len(freqs))
	r.scr.coeffs = coeffs
	for i, f := range freqs {
		coeffs[i] = dsp.NewGoertzelCoeff(f, chirpRate)
	}
	w := r.pool.Workers()
	r.scr.fwork = dsp.EnsureRows(r.scr.fwork, w)
	work := r.scr.fwork
	// fn never fails and the context never ends, so the loop cannot either.
	_ = r.pool.ForWorkers(context.Background(), w, nBins, func(g, b int) error {
		col := dsp.Resize(work[g], len(matrix))
		work[g] = col
		for i := range col {
			col[i] = matrix[i][b]
		}
		for t := range coeffs {
			out[t][b] = dsp.GoertzelPowerWith(col, coeffs[t])
		}
		return nil
	})
	return out
}

// DetectTag locates the backscatter tag that modulates at fMod by finding
// the range bin with the strongest signature and refining the peak with
// parabolic interpolation — the step that turns bin-width resolution into
// centimeter-level localization. It is the one-tag, one-tone DetectTags.
func (r *Radar) DetectTag(matrix [][]float64, grid []float64, fMod, period float64) (Detection, error) {
	dets, _, errs := r.DetectTags(matrix, grid, [][]float64{{fMod}}, []bool{true}, period)
	return dets[0], errs[0]
}

// DetectTags locates every active tag in one joint search. tones[j] lists
// tag j's modulation tones (F0 and F1 for an FSK tag; at least one for an
// active tag) and active[j] says whether tag j is searched; a tag outside the active set holds a static
// switch state, so its tones carry nothing, and it must not contest the
// bins of an active tag that shares them.
//
// A tag's signature is the sum of its tones' profiles, all taken from one
// batched SignatureProfilesInto scan. A single-tag search per tone is not
// enough in multi-tag deployments: a strong nearby tag's modulation
// harmonics and bit-pattern sidebands can out-power a weak distant tag's
// fundamental at the strong tag's own range bin (the backscatter near-far
// problem, §6). So every range bin is owned by the active tag whose
// signature is strongest there — at a tag's true bin its own fundamentals
// always dominate another tag's spectral splatter — and each tag peaks only
// over the bins it owns. The peak must reach DetectionThreshold times the
// median signature across all bins; parabolic interpolation on amplitude
// then refines it.
//
// The returned slices are radar-owned scratch, valid until the next
// DetectTags or DetectTag call; callers that keep them must copy. The
// diagnostics are populated for every active tag — on a failed detection
// they describe the best candidate bin, so callers can see how far below
// threshold the miss was. Entries of inactive tags stay zero, with a nil
// error. The detection gauges are set once per found tag, in tag order, so
// the surviving value does not depend on the worker count.
func (r *Radar) DetectTags(matrix [][]float64, grid []float64, tones [][]float64, active []bool, period float64) ([]Detection, []DetectionDiag, []error) {
	sc := &r.scr.det
	nt := len(tones)
	sc.dets = dsp.Resize(sc.dets, nt)
	sc.diags = dsp.Resize(sc.diags, nt)
	sc.errs = dsp.Resize(sc.errs, nt)
	dets, diags, errs := sc.dets, sc.diags, sc.errs
	clear(dets)
	clear(diags)
	clear(errs)
	freqs := sc.freqs[:0]
	for j, ts := range tones {
		if active[j] {
			freqs = append(freqs, ts...)
		}
	}
	sc.freqs = freqs
	if len(freqs) == 0 {
		return dets, diags, errs
	}
	nBins := 0
	if len(matrix) > 0 {
		nBins = len(matrix[0])
	}
	if nBins < 3 {
		err := fmt.Errorf("radar: signature profile too short (%d bins)", nBins)
		for j := range tones {
			if active[j] {
				errs[j] = err
			}
		}
		return dets, diags, errs
	}
	// Sum each active tag's tone rows into its first row; profs[j] is that
	// row.
	sc.rows = r.SignatureProfilesInto(sc.rows, matrix, freqs, period)
	sc.profs = dsp.EnsureRows(sc.profs, nt)
	profs := sc.profs[:nt]
	row := 0
	for j, ts := range tones {
		profs[j] = nil
		if !active[j] {
			continue
		}
		s := sc.rows[row]
		for _, t := range sc.rows[row+1 : row+len(ts)] {
			for b := range s {
				s[b] += t[b]
			}
		}
		profs[j] = s
		row += len(ts)
	}
	owner := dsp.Resize(sc.owner, nBins)
	sc.owner = owner
	for b := range owner {
		best := -1
		for j, p := range profs {
			if p != nil && (best < 0 || p[b] > profs[best][b]) {
				best = j
			}
		}
		owner[b] = best
	}
	for j, prof := range profs {
		if prof == nil {
			continue
		}
		var med float64
		med, sc.med = dsp.MedianWith(sc.med, prof)
		bestBin, bestVal := -1, 0.0
		for b, v := range prof {
			if owner[b] == j && v > bestVal {
				bestBin, bestVal = b, v
			}
		}
		candBin := bestBin
		if candBin < 0 {
			candBin, _ = dsp.MaxIndex(prof)
		}
		diags[j] = SignatureDiagWithMedian(prof, candBin, med)
		if bestBin < 0 || med <= 0 || bestVal < DetectionThreshold*med {
			errs[j] = ErrTagNotFound
			continue
		}
		delta := 0.0
		if bestBin > 0 && bestBin < nBins-1 {
			// Interpolate on amplitude (√power) for a less biased vertex.
			amps := [3]float64{math.Sqrt(prof[bestBin-1]), math.Sqrt(bestVal), math.Sqrt(prof[bestBin+1])}
			delta, _ = dsp.ParabolicPeak(amps[:], 1)
		}
		dets[j] = Detection{
			Range: grid[bestBin] + delta*(grid[1]-grid[0]),
			Bin:   bestBin,
			SNRdB: 10 * math.Log10(bestVal/med),
		}
	}
	if r.tel.detSNR != nil {
		for j, prof := range profs {
			if prof != nil && errs[j] == nil {
				r.tel.detSNR.Set(dets[j].SNRdB)
				r.tel.detPSL.Set(diags[j].PeakToSidelobeDB)
			}
		}
	}
	return dets, diags, errs
}

// UplinkFSKConfig describes the tag's slow-time FSK parameters as known to
// the radar.
type UplinkFSKConfig struct {
	// F0 and F1 are the modulation frequencies for 0- and 1-bits.
	F0, F1 float64
	// ChirpsPerBit is the bit window length in chirps.
	ChirpsPerBit int
	// Period is the chirp period in seconds.
	Period float64
}

// DecodeUplinkFSK demodulates the tag's uplink bits from the magnitude
// matrix at the detected range bin: for each bit window, compare slow-time
// tone power at F1 vs F0.
func (r *Radar) DecodeUplinkFSK(matrix [][]float64, bin int, cfg UplinkFSKConfig) ([]bool, error) {
	if cfg.ChirpsPerBit < 2 {
		return nil, fmt.Errorf("radar: chirps per bit %d must be at least 2", cfg.ChirpsPerBit)
	}
	if bin < 0 || len(matrix) == 0 || bin >= len(matrix[0]) {
		return nil, fmt.Errorf("radar: range bin %d out of bounds", bin)
	}
	chirpRate := 1 / cfg.Period
	nBits := len(matrix) / cfg.ChirpsPerBit
	bits := make([]bool, 0, nBits)
	// Gather each bit window's slow-time column once and evaluate both tones
	// over it with hoisted Goertzel constants.
	c0 := dsp.NewGoertzelCoeff(cfg.F0, chirpRate)
	c1 := dsp.NewGoertzelCoeff(cfg.F1, chirpRate)
	col := make([]float64, cfg.ChirpsPerBit) // one column buffer for all windows
	for w := 0; w < nBits; w++ {
		sub := matrix[w*cfg.ChirpsPerBit : (w+1)*cfg.ChirpsPerBit]
		for i := range col {
			col[i] = sub[i][bin]
		}
		p0 := dsp.GoertzelPowerWith(col, c0)
		p1 := dsp.GoertzelPowerWith(col, c1)
		bits = append(bits, p1 > p0)
	}
	return bits, nil
}

// DecodeUplinkOOK demodulates on-off keyed uplink bits: tone presence at
// fMod within a bit window is a 1. The threshold adapts to the packet by
// splitting the observed window powers at the midpoint between the strongest
// and weakest windows.
func (r *Radar) DecodeUplinkOOK(matrix [][]float64, bin int, fMod float64, chirpsPerBit int, period float64) ([]bool, error) {
	if chirpsPerBit < 2 {
		return nil, fmt.Errorf("radar: chirps per bit %d must be at least 2", chirpsPerBit)
	}
	if bin < 0 || len(matrix) == 0 || bin >= len(matrix[0]) {
		return nil, fmt.Errorf("radar: range bin %d out of bounds", bin)
	}
	c := dsp.NewGoertzelCoeff(fMod, 1/period)
	nBits := len(matrix) / chirpsPerBit
	powers := make([]float64, nBits)
	col := make([]float64, chirpsPerBit)
	lo, hi := math.Inf(1), math.Inf(-1)
	for w := 0; w < nBits; w++ {
		sub := matrix[w*chirpsPerBit : (w+1)*chirpsPerBit]
		for i := range col {
			col[i] = sub[i][bin]
		}
		p := dsp.GoertzelPowerWith(col, c)
		powers[w] = p
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	thr := (lo + hi) / 2
	bits := make([]bool, nBits)
	for w, p := range powers {
		bits[w] = p > thr
	}
	return bits, nil
}
