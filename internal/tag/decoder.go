package tag

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"biscatter/internal/cssk"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/packet"
)

// Method selects the per-chirp spectral estimator.
type Method int

// Decoding methods. Goertzel is the paper's low-power choice — the tag only
// needs power at the constellation beats, not the full spectrum (§3.2.2 and
// §4.1); the FFT path exists for the ablation comparison.
const (
	MethodGoertzel Method = iota
	MethodFFT
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodGoertzel:
		return "goertzel"
	case MethodFFT:
		return "fft"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Errors returned by the decoder.
var (
	// ErrNoPeriod means the chirp period could not be estimated — the tag
	// saw no periodic radar signal.
	ErrNoPeriod = errors.New("tag: chirp period not detected")
	// ErrTooShort means the capture holds fewer than two chirp periods.
	ErrTooShort = errors.New("tag: capture too short")
)

// Decoder implements the tag's decoding algorithm (§3.2.2):
//
//  1. the header field at the start of the capture gives a coarse chirp
//     period T_period and phase (the paper's "large FFT window" step,
//     realized here as the equivalent autocorrelation of the power
//     envelope); a walk over the chirps' rising edges then sharpens it to
//     the least-squares slope of the whole frame's edge times. When the
//     header window shows no period or the edges do not sit on one line,
//     the autocorrelation runs on the whole capture instead, refined by
//     fold contrast;
//  2. the power envelope folded at the period locates the inter-chirp gap,
//     aligning the per-chirp analysis window (avoiding the Fig. 6 failure
//     modes);
//  3. each chirp slot is classified against the CSSK constellation with a
//     per-candidate matched window: the Goertzel power at the candidate
//     beat over the candidate's own chirp duration. A decoder that knows
//     its packet framing stops at the slot that ends the payload.
//
// # Concurrency contract
//
// A Decoder is a single-threaded component: it reuses internal scratch
// buffers across calls, so it is not safe for concurrent use and returned
// slices are valid only until the next call on the same Decoder. Give each
// goroutine its own Decoder; separate Decoders share nothing mutable. This
// is the same contract as core.Network, which owns one Decoder per tag —
// see core.Fleet for serving many networks concurrently.
type Decoder struct {
	// Alphabet is the agreed CSSK constellation.
	Alphabet *cssk.Alphabet
	// SampleRate is the ADC rate (must match the front-end).
	SampleRate float64
	// Method selects Goertzel (default) or full-FFT classification.
	Method Method

	// scr holds capture-shaped scratch reused across decodes so the per-
	// exchange pipeline stays allocation-free after warm-up.
	scr decoderScratch
	// fftAC computes the period-search autocorrelation by real FFT; it owns
	// its transform scratch under the same single-threaded contract.
	fftAC dsp.FFTAutocorr
	// cands holds classifySlot's matched-filter tables, one entry per
	// constellation symbol; see buildCandidates.
	cands []candidate
	// framing, when set, is the packet framing the decoded symbols feed;
	// DecodeSymbols then stops where the payload ends.
	framing *packet.Config
}

// decoderScratch is the decoder's reusable buffer set: the squared power
// envelope, the two cascaded smoothing stages, the autocorrelation, and the
// fold/sort buffers of the period search.
type decoderScratch struct {
	power  []float64
	sm1    []float64
	sm2    []float64
	acorr  []float64
	folded []float64
	sorted []float64
	counts []int
}

// NewDecoder builds a decoder.
func NewDecoder(alphabet *cssk.Alphabet, sampleRate float64) (*Decoder, error) {
	if alphabet == nil {
		return nil, fmt.Errorf("tag: alphabet is required")
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("tag: sample rate %v Hz must be positive", sampleRate)
	}
	beats := alphabet.Beats()
	if hi := beats[len(beats)-1]; hi >= sampleRate/2 {
		return nil, fmt.Errorf("tag: max beat %v Hz violates Nyquist at fs=%v Hz", hi, sampleRate)
	}
	return &Decoder{Alphabet: alphabet, SampleRate: sampleRate}, nil
}

// Diagnostics reports what the decoding pipeline inferred about the capture.
type Diagnostics struct {
	// PeriodSamples is the estimated chirp period in (fractional) samples.
	PeriodSamples float64
	// ChirpStart is the estimated offset of the first full chirp start.
	ChirpStart int
	// Symbols is the number of chirp slots classified: every slot of the
	// capture, or, for a decoder that knows its packet framing, the slots up
	// to the one that ends the payload.
	Symbols int
	// FECCodedBits is the number of coded payload bits the FEC layer
	// consumed (zero when FEC is disabled).
	FECCodedBits int
	// FECCorrectedBits is the number of channel bit errors the FEC layer
	// repaired — a direct channel-quality signal for the link controller.
	FECCorrectedBits int
}

// EstimatePeriod estimates the chirp period in samples from the capture's
// power envelope. It returns ErrNoPeriod when no periodic structure is
// present.
//
// The fast path, headerPeriod, reads the period off the header field and
// the frame's chirp edges. Only when it finds no period or its edge fit is
// not confident does the whole-capture search, searchPeriod, run.
func (d *Decoder) EstimatePeriod(x []float64) (float64, error) {
	if p, ok := d.headerPeriod(x); ok {
		return p, nil
	}
	return d.searchPeriod(x)
}

// Header-window and edge-walk constants of headerPeriod.
const (
	// headerWindowChirps is the length of the header window in chirp
	// periods. The shortest period the header symbol admits is its
	// duration over the duty-cycle limit, so the window spans at least
	// this many chirps: a preamble's worth (the default header of eight
	// chirps plus two sync chirps).
	headerWindowChirps = 10
	// walkGroup is the number of chirps the edge walk folds into each
	// edge time.
	walkGroup = 8
	// edgeInlier is how far (samples) a group's edge time may sit from the
	// fitted line.
	edgeInlier = 2
	// combHalf is the half-width (samples) of the neighbourhood of each
	// predicted chirp start that a fold takes in; the edge is searched
	// within combHalf − edgeGate samples of the prediction.
	combHalf = 3 * edgeGate
	// maxBetweenRise bounds the rise a fraction 1/m of the way between
	// the fitted chirp starts may show, as a share of the rise at them.
	maxBetweenRise = 0.3
)

// headerWindow returns the header window length in samples: the first
// headerWindowChirps chirp periods at the shortest period the header
// symbol admits. The header symbol is the alphabet's longest chirp, and no
// chirp may exceed fmcw.MaxDutyCycle of the period.
func (d *Decoder) headerWindow() int {
	return int(math.Ceil(headerWindowChirps * d.Alphabet.Header().Duration / fmcw.MaxDutyCycle * d.SampleRate))
}

// headerPeriod is the fast path of EstimatePeriod, in three steps:
//
//  1. coarsePeriod, the autocorrelation step of the whole-capture search,
//     run on the header window alone gives a coarse period, and
//     AlignChirpStart on the same window its phase;
//  2. an edge walk crosses the capture walkGroup chirps at a time. Each
//     step folds the neighbourhoods of the group's predicted chirp starts
//     and takes the group's edge time from that fold's sharpest rise; the
//     least-squares line through the edge times so far predicts the next
//     group, and its slope is the period;
//  3. the gate: at most one group in eight may stray from the line, and
//     the fit must not be a multiple of the period.
//
// The window alone is not precise enough: its period error, times the
// frame's chirp count, would outrun edgeOffset's reach by the last chirp.
// Single chirps' edges are not precise either: a low beat's power ripples
// so slowly that a chirp can start near a zero of it. Folded over a group
// of chirps of random phase, the ripple averages out. Each step folds
// 2·combHalf samples per chirp, so the walk's cost grows with the chirp
// count, not with folds × samples.
//
// ok is false when the window has no period or the gate fails — at low
// SNR, where the groups stray, or where the window saw a multiple of the
// period.
func (d *Decoder) headerPeriod(x []float64) (period float64, ok bool) {
	w := min(len(x), d.headerWindow())
	p, _, err := d.coarsePeriod(x[:w])
	if err != nil {
		return 0, false
	}
	a := float64(d.AlignChirpStart(x[:w], p))
	power := d.powerOf(x)
	chirps := int((float64(len(x)-combHalf)-a)/p) + 1
	if chirps < 2*walkGroup {
		return 0, false
	}
	// The walk steers by its own fit as it goes. Its finished line then
	// refolds every group once more, so the early groups, folded while the
	// period was still coarse, are folded at the final one too, and the
	// period is refitted to the groups whose edge sits on that line. A
	// group off it caught a low beat's ripple, not the chirp starts; more
	// than one in eight, and the fit cannot be trusted.
	for pass := range 2 {
		var fit edgeLine
		groups, strays := 0, 0
		for first := 0; first < chirps; first += walkGroup {
			g := combEdge(power, a, p, first, min(first+walkGroup, chirps))
			if g.chirps == 0 {
				continue
			}
			groups++
			if pass > 0 && math.Abs(g.time-(a+p*g.index)) > edgeInlier {
				strays++
				continue
			}
			fit.add(g.index, g.time)
			switch {
			case pass > 0:
			case fit.n < 2:
				a = g.time - g.index*p
			default:
				a, p = fit.line()
			}
		}
		if fit.n < 2 || strays > groups/8 {
			return 0, false
		}
		a, p = fit.line()
	}
	// A window that saw a multiple m·T of the period walks every m-th
	// chirp, and those edges line up just as well. The chirps in between
	// give it away: their edges rise too.
	rise := combEdge(power, a, p, 0, chirps).rise
	for m := 2; p/float64(m) >= float64(d.minPeriod()); m++ {
		if combEdge(power, a+p/float64(m), p, 0, chirps).rise >= maxBetweenRise*rise {
			return 0, false
		}
	}
	return p, true
}

// edgeLine accumulates the least-squares fit of the line t = a + p·i to
// edge times t at chirp indices i.
type edgeLine struct {
	n, si, st, sii, sit float64
}

// add adds the edge time t at chirp index i to the fit.
func (l *edgeLine) add(i, t float64) {
	l.n++
	l.si += i
	l.st += t
	l.sii += i * i
	l.sit += i * t
}

// line returns the fitted intercept and slope; it needs two distinct
// indices.
func (l *edgeLine) line() (a, p float64) {
	p = (l.n*l.sit - l.si*l.st) / (l.n*l.sii - l.si*l.si)
	return (l.st - p*l.si) / l.n, p
}

// edgeFold is what combEdge finds in a fold of chirp-start neighbourhoods.
type edgeFold struct {
	// rise is the fold's sharpest rise.
	rise float64
	// index is the mean index of the chirps folded, and time their mean
	// edge time: their mean predicted start, moved to the fold's rise.
	index, time float64
	// chirps is the number of chirps folded.
	chirps int
}

// combEdge folds the power in the combHalf-sample neighbourhoods either
// side of the predicted chirp starts a + i·period, for chirps i in
// [from, to), and finds the fold's sharpest rising edge: the largest
// difference between the summed power of edgeGate fold bins and that of
// the edgeGate bins before them. Chirps whose neighbourhood leaves the
// capture are skipped.
func combEdge(power []float64, a, period float64, from, to int) edgeFold {
	var fold [2 * combHalf]float64
	var f edgeFold
	var starts int
	for i := from; i < to; i++ {
		c := int(math.Round(a + float64(i)*period))
		if c-combHalf < 0 || c+combHalf > len(power) {
			continue
		}
		for j, v := range power[c-combHalf : c+combHalf] {
			fold[j] += v
		}
		f.chirps++
		f.index += float64(i)
		starts += c
	}
	if f.chirps == 0 {
		return f
	}
	var rises [2*combHalf - 2*edgeGate + 1]float64
	best := 0
	for r := range rises {
		j := r + edgeGate
		var after, before float64
		for _, v := range fold[j : j+edgeGate] {
			after += v
		}
		for _, v := range fold[j-edgeGate : j] {
			before += v
		}
		rises[r] = after - before
		if r == 0 || rises[r] > f.rise {
			f.rise, best = rises[r], r
		}
	}
	// The rise falls off either side of the edge, so its vertex places the
	// edge between samples.
	delta, _ := dsp.ParabolicPeak(rises[:], best)
	n := float64(f.chirps)
	f.index /= n
	f.time = float64(starts)/n + float64(best+edgeGate-combHalf) + delta
	return f
}

// coarsePeriod is the first step of the period search: the biased
// autocorrelation of the smoothed power envelope, whose highest peak in
// the 30 µs … 1 ms lag range gives a coarse period. It returns that period
// with the autocorrelation at the peak, and leaves the squared samples in
// the power scratch and the autocorrelation in the acorr scratch.
func (d *Decoder) coarsePeriod(x []float64) (coarse, peak float64, err error) {
	if len(x) < 256 {
		return 0, 0, ErrTooShort
	}
	// Power envelope. The detector tone rides a 2·Δf ripple on top of the
	// burst envelope; two cascaded moving averages (≈ triangular smoothing)
	// suppress it while keeping the chirp-period fundamental.
	power := d.powerOf(x)
	smoothWidth := int(25e-6 * d.SampleRate)
	if smoothWidth < 3 {
		smoothWidth = 3
	}
	d.scr.sm1 = dsp.MovingAverageInto(d.scr.sm1, power, smoothWidth)
	env := dsp.MovingAverageInto(d.scr.sm2, d.scr.sm1, smoothWidth)
	d.scr.sm2 = env
	dsp.RemoveDC(env)
	// Chirp periods of interest: 30 µs … 1 ms.
	minLag := d.minPeriod()
	maxLag := int(1e-3 * d.SampleRate)
	if maxLag > len(x)/2 {
		maxLag = len(x) / 2
	}
	if maxLag <= minLag {
		return 0, 0, ErrTooShort
	}
	// Wiener–Khinchin: the O(n log n) transform pair replaces the serial
	// O(n·maxLag) accumulation, the period search's second-largest cost.
	r := d.fftAC.Into(d.scr.acorr, env, maxLag+1)
	d.scr.acorr = r
	// The biased autocorrelation decays with lag, so the global maximum in
	// range lands on the fundamental period rather than one of its
	// multiples.
	bestLag, bestVal := dsp.MaxIndexRange(r, minLag, maxLag+1)
	if bestVal <= 0.2*r[0] {
		return 0, 0, ErrNoPeriod
	}
	delta, _ := dsp.ParabolicPeak(r, bestLag)
	return float64(bestLag) + delta, bestVal, nil
}

// searchPeriod is the whole-capture period search, EstimatePeriod's
// fallback: coarsePeriod's lag, sharpened by refinePeriod's fold-contrast
// grids, together with the sub-multiples of it the autocorrelation
// supports.
func (d *Decoder) searchPeriod(x []float64) (float64, error) {
	coarse, bestVal, err := d.coarsePeriod(x)
	if err != nil {
		return 0, err
	}
	power, r := d.scr.power, d.scr.acorr
	// The autocorrelation apex is smeared by the smoothing and by the
	// mixed chirp durations of a CSSK payload, and any fractional-sample
	// bias accumulates across the k·period slot windows. Refine by grid
	// search on fold contrast: the true period folds the inter-chirp gap
	// into the deepest quiet region.
	//
	// The coarse peak can also land on a multiple of the true period, and a
	// multiple folds just as cleanly — so test the sub-multiples and prefer
	// the smallest period whose contrast is close to the best.
	//
	// A true sub-multiple repeats the envelope at its own lag, so its
	// autocorrelation there is close to the coarse peak's. A candidate
	// below half the peak is skipped without folding: one lookup in place
	// of refinePeriod's 102 whole-capture folds.
	minPeriod := float64(d.minPeriod())
	type cand struct{ period, score float64 }
	var cands [8]cand
	nCands := 0
	bestScore := math.Inf(-1)
	for m := 1; m <= len(cands); m++ {
		p0 := coarse / float64(m)
		if p0 < minPeriod {
			break
		}
		if m > 1 && r[int(math.Round(p0))] < 0.5*bestVal {
			continue
		}
		p, s := d.refinePeriod(power, p0)
		cands[nCands] = cand{p, s}
		nCands++
		if s > bestScore {
			bestScore = s
		}
	}
	for i := nCands - 1; i >= 0; i-- {
		if cands[i].score >= 0.8*bestScore {
			return cands[i].period, nil
		}
	}
	return coarse, nil
}

// minPeriod returns the shortest chirp period the decoder looks for, in
// samples: 30 µs, and at least 4 samples.
func (d *Decoder) minPeriod() int {
	return max(int(30e-6*d.SampleRate), 4)
}

// powerOf writes the squared samples of x into the decoder's power scratch
// and returns it.
func (d *Decoder) powerOf(x []float64) []float64 {
	power := dsp.Resize(d.scr.power, len(x))
	for i, v := range x {
		power[i] = v * v
	}
	d.scr.power = power
	return power
}

// refinePeriod sharpens a coarse period estimate by maximizing the contrast
// of the power envelope folded at candidate periods. It returns the winning
// period with its contrast, so the caller never re-folds the winner.
func (d *Decoder) refinePeriod(power []float64, p0 float64) (float64, float64) {
	best, bestScore := p0, math.Inf(-1)
	span := p0 * 0.02
	step := span / 40
	if step <= 0 {
		return p0, d.foldContrast(power, p0)
	}
	for p := p0 - span; p <= p0+span; p += step {
		if s := d.foldContrast(power, p); s > bestScore {
			bestScore, best = s, p
		}
	}
	// Second, finer pass around the winner.
	p1 := best
	for p := p1 - step; p <= p1+step; p += step / 10 {
		if s := d.foldContrast(power, p); s > bestScore {
			bestScore, best = s, p
		}
	}
	if math.IsInf(bestScore, -1) {
		// No grid point beat -Inf (NaN scores never do), so p0 stands
		// without a score of its own: fold it, as the caller used to.
		return p0, d.foldContrast(power, p0)
	}
	return best, bestScore
}

// ceilMulExact returns ⌈k·period⌉ computed on the exact real product, not
// the rounded float64 one. The two-product trick recovers the rounding
// error of the multiply — hi+lo is exactly k·period because FMA rounds
// once — and the ceiling is then corrected when that error crosses an
// integer boundary. This is what lets the fold below walk period
// boundaries with pure integer indices while matching the per-sample
// int(math.Mod(float64(i), period)) bin assignment bit for bit: both are
// the exact remainder ⌊i − k·period⌋ of real arithmetic (math.Mod is
// exact by construction).
func ceilMulExact(k, period float64) int {
	hi := k * period
	lo := math.FMA(k, period, -hi)
	s := math.Ceil(hi)
	// d and d+lo are exact: |hi−s| < 1 and |lo| ≤ ½ulp(hi), so both fit a
	// 53-bit significand for the magnitudes the decoder sees (captures are
	// far below 2^40 samples).
	d := hi - s
	t := d + lo // exact value of k·period − s
	switch {
	case t > 0:
		s++
	case t <= -1:
		s--
	}
	return int(s)
}

// foldRuns is the number of chirp runs foldPeriodInto accumulates per pass.
const foldRuns = 8

// foldPeriodInto folds x at the candidate period into the folded/counts
// accumulators. It is the exact-arithmetic restructuring of the naive
// per-sample loop
//
//	b := int(math.Mod(float64(i), period)); folded[b] += x[i]; counts[b]++
//
// the per-sample math.Mod of which dominated the whole exchange CPU profile.
// Samples are processed as contiguous runs, one per chirp period: run k
// covers samples [⌈k·period⌉, ⌈(k+1)·period⌉) and sample i inside it folds
// to bin i − ⌈k·period⌉. Each bin still accumulates its samples in
// ascending-index order, so the sums are bit-identical to the naive loop —
// the golden vectors prove it.
//
// Complete runs are folded foldRuns at a time: every bin but the last gets
// f[b] + r0[b] + … + r7[b] in one pass, which Go evaluates left to right —
// the very additions, in the very order, of eight single-run passes, with
// one load and store of f[b] instead of eight. The last bin, where a long
// run spills, is then finished run by run in index order. The remaining
// runs, fewer than foldRuns, take the single-run loop.
func foldPeriodInto(folded []float64, counts []int, x []float64, period float64) {
	bins := len(folded)
	last := bins - 1
	n := len(x)
	// counts never feeds the floating-point order, so it is hoisted out of
	// the sample loop entirely: counts[m-1] first accumulates a run-length
	// histogram (runs of in-bin length m), and the suffix sum below turns
	// it into per-bin sample counts — integer-exact, O(bins) instead of
	// O(n).
	spill := 0
	start := 0
	k := 1
	for ; ; k += foldRuns {
		var ends [foldRuns]int
		for j := range ends {
			ends[j] = ceilMulExact(float64(k+j), period)
		}
		if ends[foldRuns-1] > n {
			break
		}
		// Complete runs are floor(period) or ceil(period) samples long, so
		// each covers every bin and spills at most one sample.
		body := folded[:last]
		r0 := x[start:][:len(body)]
		r1 := x[ends[0]:][:len(body)]
		r2 := x[ends[1]:][:len(body)]
		r3 := x[ends[2]:][:len(body)]
		r4 := x[ends[3]:][:len(body)]
		r5 := x[ends[4]:][:len(body)]
		r6 := x[ends[5]:][:len(body)]
		r7 := x[ends[6]:][:len(body)]
		for b := range body {
			body[b] = body[b] + r0[b] + r1[b] + r2[b] + r3[b] + r4[b] + r5[b] + r6[b] + r7[b]
		}
		for _, end := range ends {
			for _, v := range x[start+last : end] {
				folded[last] += v
			}
			spill += end - start - bins
			start = end
		}
		counts[last] += foldRuns
	}
	for ; start < n; k++ {
		next := ceilMulExact(float64(k), period)
		if next > n {
			next = n
		}
		run := x[start:next]
		inb := len(run)
		if inb > bins {
			inb = bins
		}
		for b, v := range run[:inb] {
			folded[b] += v
		}
		// Only the final sample of a long run can pass bins-1; it clamps
		// onto the last bin after that bin's regular sample, exactly like
		// the naive loop's b >= bins guard in ascending index order.
		for _, v := range run[inb:] {
			folded[last] += v
			spill++
		}
		counts[inb-1]++
		start = next
	}
	for b := bins - 2; b >= 0; b-- {
		counts[b] += counts[b+1]
	}
	counts[last] += spill
}

// foldMeans folds x at the period into the decoder's fold scratch and
// returns the per-bin means.
func (d *Decoder) foldMeans(x []float64, period float64) []float64 {
	bins := int(period)
	folded := dsp.Resize(d.scr.folded, bins)
	clear(folded)
	d.scr.folded = folded
	counts := dsp.Resize(d.scr.counts, bins)
	clear(counts)
	d.scr.counts = counts
	foldPeriodInto(folded, counts, x, period)
	for b := range folded {
		if counts[b] > 0 {
			folded[b] /= float64(counts[b])
		}
	}
	return folded
}

// foldContrast folds the power envelope at the candidate period and returns
// the contrast between the loudest and quietest fifths of the fold. The
// true period aligns every inter-chirp gap onto the same bins, maximizing
// the contrast. It is the inner statistic of the period grid search, so the
// fold/selection buffers live in the decoder scratch.
func (d *Decoder) foldContrast(power []float64, period float64) float64 {
	bins := int(period)
	if bins < 4 || len(power) < 2*bins {
		return math.Inf(-1)
	}
	d.scr.sorted = dsp.Resize(d.scr.sorted, bins)
	return tailContrast(d.foldMeans(power, period), d.scr.sorted)
}

// tailContrast is the ratio of the sum of the loudest fifth of the fold
// means to that of the quietest fifth. The duty-cycle limit guarantees a
// quiet gap of at least 20% of the period, which is what the quiet fifth
// measures. scratch, of len(means), receives a reordered copy of means.
//
// Only the two tails are summed, in sorted order, so they are selected and
// sorted alone: the sums see the same values in the same order as after a
// full sort.
func tailContrast(means, scratch []float64) float64 {
	bins := len(means)
	dec := bins / 5
	if dec < 1 {
		dec = 1
	}
	copy(scratch, means)
	selectSmallest(scratch, dec)
	selectSmallest(scratch[dec:], bins-2*dec)
	slices.Sort(scratch[:dec])
	slices.Sort(scratch[bins-dec:])
	var lo, hi float64
	for i := 0; i < dec; i++ {
		lo += scratch[i]
		hi += scratch[bins-1-i]
	}
	if hi <= 0 {
		return math.Inf(-1)
	}
	return hi / (lo + 1e-3*hi)
}

// selectSmallest reorders s so that s[:k] holds, in no particular order,
// the k values a slices.Sort would put first (NaNs sort lowest), and s[k:]
// the rest. It is Hoare quickselect with a median-of-three pivot; 0 < k <
// len(s).
func selectSmallest(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cmp.Less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmp.Less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
			if cmp.Less(s[mid], s[lo]) {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(s[i], pivot) {
				i++
			}
			for cmp.Less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi], and s[j+1..i-1] equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// AlignChirpStart locates the phase (sample offset in [0, period)) at which
// chirps begin. The power envelope folded at the period has its sharpest
// circular rising edge exactly at the chirp start: every chirp is active for
// at least the 20 µs minimum duration right after it, and the ≤80% duty
// cycle guarantees every chirp is silent right before it. Edge detection is
// threshold-free, unlike quiet-run search, and therefore robust to payloads
// whose mixed durations leave intermediate-power fold bins.
func (d *Decoder) AlignChirpStart(x []float64, period float64) int {
	bins := int(period)
	if bins < 8 || len(x) < bins {
		return 0
	}
	folded := d.foldMeans(d.powerOf(x), period)
	g := bins / 8 // comparison window; ≤ the guaranteed active/quiet spans
	if g < 2 {
		g = 2
	}
	bestScore, bestBin := math.Inf(-1), 0
	for b := 0; b < bins; b++ {
		var after, before float64
		for k := 0; k < g; k++ {
			after += folded[(b+k)%bins]
			before += folded[(b-1-k+2*bins)%bins]
		}
		if score := after - before; score > bestScore {
			bestScore, bestBin = score, b
		}
	}
	return bestBin
}

// candidate is one constellation symbol's matched-filter set, as
// classifySlot reads it: the table at the symbol's beat, the length of the
// window its chirp fills, and the fine-scan grid around the beat in scan
// order.
type candidate struct {
	sym    cssk.Symbol
	n      int
	coarse *dsp.ToneTable
	fine   []*dsp.ToneTable
}

// buildCandidates builds classifySlot's candidate list on the first decode
// — the header, the sync, then each data symbol — with every table grown to
// its symbol's window, so the per-(frame, slot) hot loop builds nothing. The
// alphabet and sample rate are fixed at construction, so the list never
// changes; a mode change builds a new Decoder and with it a new list. The
// FFT method needs no list.
func (d *Decoder) buildCandidates() {
	if d.cands != nil || d.Method == MethodFFT {
		return
	}
	spacing := d.Alphabet.MinSpacing()
	add := func(s cssk.Symbol) {
		n := max(int(s.Duration*d.SampleRate), 0)
		c := candidate{sym: s, n: n, coarse: dsp.NewToneTable(s.Beat, d.SampleRate, n)}
		for f := s.Beat - 1.5*spacing; f <= s.Beat+1.5*spacing; f += spacing / 10 {
			if f <= 0 || f >= d.SampleRate/2 {
				continue
			}
			c.fine = append(c.fine, dsp.NewToneTable(f, d.SampleRate, n))
		}
		d.cands = append(d.cands, c)
	}
	add(d.Alphabet.Header())
	add(d.Alphabet.Sync())
	for i := range d.Alphabet.DataSymbolCount() {
		if s, err := d.Alphabet.DataSymbol(i); err == nil {
			add(s)
		}
	}
}

// classifySlot classifies one chirp slot starting at sample w using the
// per-candidate matched window.
func (d *Decoder) classifySlot(x []float64, w int, period float64) (cssk.Symbol, bool) {
	if d.Method == MethodFFT {
		// Full-window FFT: take the longest possible chirp window, find the
		// spectral peak, and classify the peak frequency to the nearest
		// constellation beat.
		n := int(0.999 * period)
		if w+n > len(x) {
			n = len(x) - w
		}
		if n < 8 {
			return cssk.Symbol{}, false
		}
		m := dsp.NextPowerOfTwo(n)
		plan, err := dsp.RealPlanFor(m)
		if err != nil {
			return cssk.Symbol{}, false
		}
		win := make([]float64, m)
		copy(win, x[w:w+n])
		dsp.ApplyWindow(win[:n], dsp.Hann(n))
		spec := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(spec, win)
		mags := make([]float64, len(spec))
		dsp.MagnitudesInto(mags, spec)
		lo := 1
		hi := m / 2
		if hi <= lo {
			return cssk.Symbol{}, false
		}
		idx, _ := dsp.MaxIndexRange(mags, lo, hi)
		delta, _ := dsp.ParabolicPeak(mags, idx)
		freq := (float64(idx) + delta) * d.SampleRate / float64(m)
		return d.Alphabet.ClassifyBeat(freq), true
	}
	best := math.Inf(-1)
	var bc *candidate
	for i := range d.cands {
		c := &d.cands[i]
		n := min(c.n, len(x)-w)
		if n < 4 {
			continue
		}
		if p := c.coarse.EnergyAt(x[w:w+n]) / float64(n); p > best {
			best, bc = p, c
		}
	}
	if bc == nil {
		return cssk.Symbol{}, false
	}
	// Fine pass: the coarse matched filter resolves to within about one
	// constellation point, but the ML frequency estimate of a tone in noise
	// is far finer than the Fourier resolution of a single chirp. Scan the
	// periodogram around the coarse beat and classify the refined peak.
	n := min(bc.n, len(x)-w)
	if n < 8 {
		return bc.sym, true
	}
	win := x[w : w+n]
	fBest, pBest := bc.sym.Beat, -1.0
	for _, t := range bc.fine {
		if p := t.EnergyAt(win); p > pBest {
			pBest, fBest = p, t.Freq()
		}
	}
	return d.Alphabet.ClassifyBeat(fBest), true
}

// DecodeSymbols classifies the complete chirp slots of the capture in order,
// given the period (samples) and start offset. Each slot is micro-aligned to
// the chirp's rising power edge, which absorbs residual period error over
// long frames.
//
// A decoder that knows its packet framing (tag.New gives it one) stops at
// the symbol that ends the payload, the first non-data symbol after it: the
// radar pads a frame with header chirps to the uplink's length, and
// packet.Config.DecodeStats reads nothing past that symbol, so the symbols
// returned decode exactly as the whole frame's would. A bare decoder from
// NewDecoder classifies every slot.
//
// A start within edge reach of the period is a chirp that begins at, or
// just before, sample 0: the fold wrapped its edge onto the last bin. The
// slot before start is then decoded too, from sample 0, so that chirp is
// not skipped.
func (d *Decoder) DecodeSymbols(x []float64, period float64, start int) []cssk.Symbol {
	first := 0
	if period-float64(start) <= edgeReach {
		first = -1
	}
	slot := func(k int) int { return start + int(math.Round(float64(k)*period)) }
	// A slot needs half a period of capture. A bare decoder fills every
	// slot, so its result is allocated once, at its exact size; a framed one
	// stops early, so its result grows as it goes.
	end := first
	for slot(end)+int(0.5*period) <= len(x) {
		end++
	}
	var out []cssk.Symbol
	var payload packet.PayloadEnd
	if d.framing != nil {
		payload = d.framing.NewPayloadEnd()
	} else {
		out = make([]cssk.Symbol, 0, end-first)
	}
	d.buildCandidates()
	for k := first; k < end; k++ {
		w := slot(k)
		w += d.edgeOffset(x, w)
		if w < 0 {
			w = 0
		}
		if s, ok := d.classifySlot(x, w, period); ok {
			out = append(out, s)
			if d.framing != nil && payload.Last(s.Kind) {
				break
			}
		}
	}
	return out
}

// Edge search constants of edgeOffset.
const (
	// edgeReach is how far (samples) edgeOffset looks either side of the
	// nominal slot start.
	edgeReach = 6
	// edgeGate is the length (samples) of the power sums compared either
	// side of a candidate edge.
	edgeGate = 8
)

// edgeOffset searches a small neighborhood of the nominal slot start for the
// chirp's rising power edge and returns the correction in samples.
func (d *Decoder) edgeOffset(x []float64, w int) int {
	const g = edgeGate
	bestScore := math.Inf(-1)
	bestOff := 0
	for off := -edgeReach; off <= edgeReach; off++ {
		p := w + off
		if p-g < 0 || p+g > len(x) {
			continue
		}
		var after, before float64
		for i := p; i < p+g; i++ {
			after += x[i] * x[i]
		}
		for i := p - g; i < p; i++ {
			before += x[i] * x[i]
		}
		if score := after - before; score > bestScore {
			bestScore = score
			bestOff = off
		}
	}
	return bestOff
}

// DecodeFrame runs the full pipeline on a capture: period estimation,
// alignment, per-slot classification. Like DecodeSymbols, a decoder that
// knows its packet framing classifies the slots up to the payload's end, and
// a bare one every slot.
func (d *Decoder) DecodeFrame(x []float64) ([]cssk.Symbol, Diagnostics, error) {
	d.buildCandidates()
	period, err := d.EstimatePeriod(x)
	if err != nil {
		return nil, Diagnostics{}, err
	}
	start := d.AlignChirpStart(x, period)
	syms := d.DecodeSymbols(x, period, start)
	return syms, Diagnostics{PeriodSamples: period, ChirpStart: start, Symbols: len(syms)}, nil
}
