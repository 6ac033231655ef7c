package tag

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"biscatter/internal/dsp"
	"biscatter/internal/fault"
	"biscatter/internal/fmcw"
)

// The frozen* functions below are the period search as it stood before the
// fused fold, the tail selection, the reuse of the refine score and the
// branch-free smoothing interior — copied verbatim apart from their names.
// They are the oracle that licenses those restructurings: EstimatePeriod
// must return the same period bit for bit on every capture.

func frozenEstimatePeriod(d *Decoder, x []float64) (float64, error) {
	if len(x) < 256 {
		return 0, ErrTooShort
	}
	power := make([]float64, len(x))
	for i, v := range x {
		power[i] = v * v
	}
	smoothWidth := int(25e-6 * d.SampleRate)
	if smoothWidth < 3 {
		smoothWidth = 3
	}
	env := frozenMovingAverage(frozenMovingAverage(power, smoothWidth), smoothWidth)
	dsp.RemoveDC(env)
	minLag := int(30e-6 * d.SampleRate)
	if minLag < 4 {
		minLag = 4
	}
	maxLag := int(1e-3 * d.SampleRate)
	if maxLag > len(x)/2 {
		maxLag = len(x) / 2
	}
	if maxLag <= minLag {
		return 0, ErrTooShort
	}
	var ac dsp.FFTAutocorr
	r := ac.Into(nil, env, maxLag+1)
	bestLag, bestVal := dsp.MaxIndexRange(r, minLag, maxLag+1)
	if bestVal <= 0.2*r[0] {
		return 0, ErrNoPeriod
	}
	delta, _ := dsp.ParabolicPeak(r, bestLag)
	coarse := float64(bestLag) + delta
	minPeriod := float64(minLag)
	type cand struct{ period, score float64 }
	var cands [8]cand
	nCands := 0
	bestScore := math.Inf(-1)
	for m := 1; m <= len(cands); m++ {
		p0 := coarse / float64(m)
		if p0 < minPeriod {
			break
		}
		p := frozenRefinePeriod(power, p0)
		s := frozenFoldContrast(power, p)
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

func frozenMovingAverage(x []float64, width int) []float64 {
	out := make([]float64, len(x))
	if width <= 1 || len(x) == 0 {
		copy(out, x)
		return out
	}
	half := width / 2
	for i := range x {
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
		out[i] = sum / float64(n)
	}
	return out
}

func frozenRefinePeriod(power []float64, p0 float64) float64 {
	best, bestScore := p0, math.Inf(-1)
	span := p0 * 0.02
	step := span / 40
	if step <= 0 {
		return p0
	}
	for p := p0 - span; p <= p0+span; p += step {
		if s := frozenFoldContrast(power, p); s > bestScore {
			bestScore, best = s, p
		}
	}
	p1 := best
	for p := p1 - step; p <= p1+step; p += step / 10 {
		if s := frozenFoldContrast(power, p); s > bestScore {
			bestScore, best = s, p
		}
	}
	return best
}

// frozenFold is the single-run fold of the frozen search (its unsquared
// form): one pass per chirp run.
func frozenFold(folded []float64, counts []int, x []float64, period float64) {
	bins := len(folded)
	n := len(x)
	spill := 0
	start := 0
	for k := 1; start < n; k++ {
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
		for _, v := range run[inb:] {
			folded[bins-1] += v
			spill++
		}
		counts[inb-1]++
		start = next
	}
	for b := bins - 2; b >= 0; b-- {
		counts[b] += counts[b+1]
	}
	counts[bins-1] += spill
}

func frozenFoldContrast(power []float64, period float64) float64 {
	bins := int(period)
	if bins < 4 || len(power) < 2*bins {
		return math.Inf(-1)
	}
	folded := make([]float64, bins)
	counts := make([]int, bins)
	frozenFold(folded, counts, power, period)
	for b := range folded {
		if counts[b] > 0 {
			folded[b] /= float64(counts[b])
		}
	}
	return frozenSortedContrast(folded)
}

// frozenSortedContrast is the full-sort tail contrast of the frozen search.
func frozenSortedContrast(folded []float64) float64 {
	bins := len(folded)
	sorted := slices.Clone(folded)
	slices.Sort(sorted)
	dec := bins / 5
	if dec < 1 {
		dec = 1
	}
	var lo, hi float64
	for i := 0; i < dec; i++ {
		lo += sorted[i]
		hi += sorted[bins-1-i]
	}
	if hi <= 0 {
		return math.Inf(-1)
	}
	return hi / (lo + 1e-3*hi)
}

// paddedFrame builds the downlink frame for payload, padded with header
// chirps to the given chirp count, as core.Network.BuildDownlinkFrame pads
// a frame to the uplink's length.
func (s *testSetup) paddedFrame(t *testing.T, payload []byte, chirps int) *fmcw.Frame {
	t.Helper()
	durs, err := s.pkt.Durations(payload)
	if err != nil {
		t.Fatal(err)
	}
	for len(durs) < chirps {
		durs = append(durs, s.alpha.Header().Duration)
	}
	frame, err := s.builder.Build(durs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// paddedCapture captures the padded frame of paddedFrame.
func (s *testSetup) paddedCapture(t *testing.T, payload []byte, chirps int, snrDB float64) []float64 {
	t.Helper()
	return s.fe.CaptureFrame(s.paddedFrame(t, payload, chirps), snrDB)
}

// alternatingTrain is a synthetic tag capture: tone bursts of the given
// duty at a fractional period, every other burst carrying only the weak
// fraction of the power, in white noise of standard deviation sigma. The
// envelope then repeats at 2·period, where its autocorrelation peaks, so
// the search must fold its way down to the sub-multiple.
func alternatingTrain(n int, period, duty, weak, sigma, offset float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		t := float64(i) + offset
		k := int(t / period)
		if t-float64(k)*period < duty*period {
			a := 1.0
			if k%2 == 1 {
				a = math.Sqrt(weak)
			}
			x[i] = a * math.Cos(2*math.Pi*0.05*t)
		}
		x[i] += sigma * rng.NormFloat64()
	}
	return x
}

// refinedMultiples recomputes, from the autocorrelation that the last
// searchPeriod call on d left in its scratch, the coarse lag of that search
// and the sub-multiples m its gate let through to refinePeriod. all counts
// every m the loop visits, which the search before the gate refined. n is
// the length of the capture searched.
func refinedMultiples(d *Decoder, n int) (coarse float64, refined []int, all int) {
	r := d.scr.acorr
	minLag := d.minPeriod()
	maxLag := min(int(1e-3*d.SampleRate), n/2)
	bestLag, bestVal := dsp.MaxIndexRange(r, minLag, maxLag+1)
	delta, _ := dsp.ParabolicPeak(r, bestLag)
	coarse = float64(bestLag) + delta
	for m := 1; m <= 8; m++ {
		p0 := coarse / float64(m)
		if p0 < float64(minLag) {
			break
		}
		all++
		if m == 1 || r[int(math.Round(p0))] >= 0.5*bestVal {
			refined = append(refined, m)
		}
	}
	return coarse, refined, all
}

// alternatingPeriod is the burst period of the alternatingTrain captures.
const alternatingPeriod = 119.7

// periodTolerance bounds, in samples, how far the slot grid of a
// header-window period may part from that of the frozen search by the last
// chirp of a capture: |period − frozen| · chirps. Half of edgeOffset's
// reach, so DecodeSymbols' per-slot edge search absorbs the difference
// with room to spare.
const periodTolerance = edgeReach / 2

// TestEstimatePeriodMatchesFrozenSearch is the property test of the period
// search against its frozen copy. On exchange-length (256-chirp,
// 30720-sample) and round-length (64-chirp, 7680-sample) captures across
// SNR 0–30 dB, two constellations and three noise seeds, plus
// fault-injected, desynchronized, late-waking, noise-only and
// alternating-power captures:
//
//   - the whole-capture search, searchPeriod, agrees with the frozen search
//     bit for bit, error included;
//   - where the header-window path, headerPeriod, is confident,
//     EstimatePeriod returns its period, within periodTolerance of the
//     frozen search's or nearer the true period than it;
//   - everywhere else EstimatePeriod is the whole-capture search, so it
//     agrees with the frozen search bit for bit.
//
// The 0 dB exchange-length captures must all take the whole-capture path
// and the 5 dB ones must split, so both sides of the gate stay pinned. One
// Decoder serves every capture, so scratch reuse across lengths and paths
// is covered too.
func TestEstimatePeriodMatchesFrozenSearch(t *testing.T) {
	type capture struct {
		name string
		x    []float64
		// sub marks a capture on which the frozen search must return a
		// sub-multiple of the autocorrelation peak, not the peak itself.
		sub bool
		// snr is the downlink SNR of a clean capture.
		snr float64
	}
	var caps []capture
	// A front-end reuses its capture buffer, so each capture is copied out.
	add := func(name string, x []float64) { caps = append(caps, capture{name: name, x: slices.Clone(x)}) }
	clean := func(bits int, seed int64, chirps int, snr float64) {
		x := newSetup(t, bits, seed).paddedCapture(t, []byte("period oracle"), chirps, snr)
		if want := chirps * int(testPeriod*testFs); len(x) != want {
			t.Fatalf("capture of %d chirps holds %d samples, want %d", chirps, len(x), want)
		}
		caps = append(caps, capture{name: "clean", x: slices.Clone(x), snr: snr})
	}
	gateEdgeSeeds := map[float64]int64{0: 3, 5: 6}
	for i, snr := range []float64{0, 5, 10, 15, 20, 25, 30} {
		// The long captures dominate the run time (more so under -race),
		// so each SNR takes one, rotating constellation and seed.
		clean([]int{5, 3}[i%2], 41+int64(i%3), 256, snr)
		// The gate's edge: more seeds, so both paths show up.
		for seed := int64(41); seed < 41+gateEdgeSeeds[snr]; seed++ {
			clean(5, seed, 256, snr)
		}
		if snr == 0 {
			continue
		}
		for _, bits := range []int{5, 3} {
			for seed := int64(41); seed <= 43; seed++ {
				clean(bits, seed, 64, snr)
			}
		}
	}
	s := newSetup(t, 5, 7)
	s.fe.Faults = fault.NewTagInjector(&fault.Profile{
		Interference: &fault.Interference{TagPowerDBm: -38, DutyCycle: 0.3},
		Dropout:      &fault.Dropout{Rate: 0.1, ClipFraction: 0.5},
		Tag: &fault.TagFaults{
			Saturation: &fault.Saturation{ClipLevel: 0.8, Bits: 6},
			Desync:     &fault.Desync{MaxOffset: 0.4},
		},
	}, 0, 7, 6, nil)
	add("faulted", s.paddedCapture(t, []byte("faulted"), 256, 15))
	rng := rand.New(rand.NewSource(8))
	noise := make([]float64, 7680)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	add("noise", noise)
	// The tag wakes up to three periods into the frame, as in
	// TestDecodeSurvivesRandomWakeOffsetsProperty.
	late := newSetup(t, 5, 60)
	for i, chirps := range []int{64, 64, 64, 256} {
		frame := late.paddedFrame(t, []byte("wake offsets"), chirps)
		add("wake offset", late.fe.Capture(frame, 10+5*float64(i), rng.Float64()*3*testPeriod, 0))
	}
	ds := newSetup(t, 3, 9)
	ds.fe.Faults = fault.NewTagInjector(&fault.Profile{
		Tag: &fault.TagFaults{Desync: &fault.Desync{MaxOffset: 0.4}},
	}, 0, 9, 0, nil)
	add("desync", ds.paddedCapture(t, []byte("desync"), 64, 15))
	// Alternating strong and weak bursts put the autocorrelation peak on
	// twice the period, so the frozen search returns m = 2. Weaker
	// alternate bursts (weak ≤ 0.4 at duty 0.5, ≤ 0.6 at duty 0.7) leave
	// r[P] under half the peak: there the gate keeps 2P where the frozen
	// search folds down to P, so the corpus stops at the gate's edge.
	for _, n := range []int{7680, 30720} {
		for _, tr := range []struct{ duty, weak float64 }{{0.5, 0.6}, {0.5, 0.7}, {0.5, 0.9}, {0.7, 0.7}, {0.7, 0.9}} {
			x := alternatingTrain(n, alternatingPeriod, tr.duty, tr.weak, 0.1, 31.4, int64(n))
			caps = append(caps, capture{name: "alternating", x: x, sub: true})
		}
	}
	// At 0–2 dB the autocorrelation peak of a real capture often lands on
	// 2–5 periods, and the frozen search folds down to the fundamental from
	// there: the gate must let that sub-multiple through. Round-length
	// captures at 0 dB and below are where the gate departs from the frozen
	// search; TestPeriodGateDepartsTowardTheTruth covers them.
	lowFirst := len(caps)
	for _, seed := range []int64{41, 42, 43} {
		low := newSetup(t, 5, seed)
		for _, lc := range []struct {
			chirps int
			snr    float64
		}{{256, 0}, {256, 2}, {64, 2}} {
			add("low snr", low.paddedCapture(t, []byte("period oracle"), lc.chirps, lc.snr))
		}
	}
	lowSubs := 0

	d := s.dec
	fastAt := map[float64]int{}
	wholeAt := map[float64]int{}
	worst, nearer := 0.0, 0
	for i, c := range caps {
		got, gotErr := d.EstimatePeriod(c.x)
		want, wantErr := frozenEstimatePeriod(d, c.x)
		fast, ok := d.headerPeriod(c.x)
		whole, wholeErr := d.searchPeriod(c.x)
		if !errors.Is(wholeErr, wantErr) || !errors.Is(wantErr, wholeErr) {
			t.Fatalf("capture %d (%s, %d samples): whole-capture error %v, frozen search %v", i, c.name, len(c.x), wholeErr, wantErr)
		}
		if math.Float64bits(whole) != math.Float64bits(want) {
			t.Fatalf("capture %d (%s, %d samples): whole-capture period %v, frozen search %v", i, c.name, len(c.x), whole, want)
		}
		if ok {
			if gotErr != nil || math.Float64bits(got) != math.Float64bits(fast) {
				t.Fatalf("capture %d (%s, %d samples): period %v (%v), header window %v", i, c.name, len(c.x), got, gotErr, fast)
			}
			if wantErr != nil {
				t.Fatalf("capture %d (%s, %d samples): header window found %v where the frozen search found %v", i, c.name, len(c.x), fast, wantErr)
			}
			truth := testPeriod * testFs
			if c.name == "alternating" {
				truth = alternatingPeriod
			}
			drift := math.Abs(got-want) * float64(len(c.x)) / want
			if drift > periodTolerance && math.Abs(got-truth) >= math.Abs(want-truth) {
				t.Fatalf("capture %d (%s, %d samples): period %v parts from the frozen search's %v by %.2f samples, and is no nearer the true %v", i, c.name, len(c.x), got, want, drift, truth)
			}
			if drift > periodTolerance {
				nearer++
			} else {
				worst = max(worst, drift)
			}
		} else if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("capture %d (%s, %d samples): period %v (%v), frozen search %v (%v)", i, c.name, len(c.x), got, gotErr, want, wantErr)
		}
		if c.name == "clean" && len(c.x) == 30720 {
			if ok {
				fastAt[c.snr]++
			} else {
				wholeAt[c.snr]++
			}
		}
		coarse, _, _ := refinedMultiples(d, len(c.x))
		sub := wantErr == nil && want < 0.75*coarse
		if c.sub && !sub {
			t.Fatalf("capture %d (%s, %d samples): frozen search kept %v, not a sub-multiple of the peak %v", i, c.name, len(c.x), want, coarse)
		}
		if i >= lowFirst && sub {
			lowSubs++
		}
	}
	if lowSubs < 3 {
		t.Fatalf("frozen search folded down from a multiple on %d low-SNR captures, want at least 3", lowSubs)
	}
	if fastAt[0] != 0 || wholeAt[5] == 0 || fastAt[5] == 0 {
		t.Fatalf("exchange-length captures on the header-window path: %v at 0 dB and %v at 5 dB, on the whole-capture path %v and %v; want none at 0 dB and both paths at 5 dB", fastAt[0], fastAt[5], wholeAt[0], wholeAt[5])
	}
	t.Logf("header-window path on exchange-length captures by SNR %v, whole-capture path %v; worst drift from the frozen search %.2f samples, beyond that and nearer the truth on %d captures", fastAt, wholeAt, worst, nearer)
	t.Logf("frozen search folded down from a multiple on %d of %d low-SNR captures", lowSubs, len(caps)-lowFirst)
}

// TestPeriodGateRefinesOnlyTheFundamental recomputes the sub-multiple gate
// of the whole-capture search on clean exchange- and round-length
// captures. Where the autocorrelation peaks on the period itself, only
// m = 1 reaches refinePeriod, where the search before the gate refined
// every m down to the 30 µs floor; where it peaks on k periods (at 5 dB it
// can), m = k must get through. The test
// reports the per-frame fold accumulations of both searches from the loop
// bounds: one add per sample per fold, each refine being the coarse and
// fine grids of refinePeriod (about 81 + 21 folds).
func TestPeriodGateRefinesOnlyTheFundamental(t *testing.T) {
	s := newSetup(t, 5, 41)
	period := testPeriod * testFs
	for _, chirps := range []int{256, 64} {
		fundamental := 0
		for _, snr := range []float64{5, 10, 15, 20, 30} {
			x := s.paddedCapture(t, []byte("fold count"), chirps, snr)
			if _, err := s.dec.searchPeriod(x); err != nil {
				t.Fatal(err)
			}
			coarse, refined, all := refinedMultiples(s.dec, len(x))
			k := int(math.Round(coarse / period))
			if k != 1 {
				if !slices.Contains(refined, k) {
					t.Fatalf("%d chirps at %v dB: peak at %d periods, refined m = %v", chirps, snr, k, refined)
				}
				continue
			}
			fundamental++
			if !slices.Equal(refined, []int{1}) {
				t.Fatalf("%d chirps at %v dB: refined m = %v, want [1]", chirps, snr, refined)
			}
			before := 0
			for m := 1; m <= all; m++ {
				before += refineFolds(coarse/float64(m)) * len(x)
			}
			after := refineFolds(coarse) * len(x)
			if before < 3*after {
				t.Fatalf("%d chirps at %v dB: %d fold accumulations before the gate, %d after", chirps, snr, before, after)
			}
			t.Logf("%d chirps at %v dB: fold accumulations per frame %d before the gate (m = 1…%d), %d after", chirps, snr, before, all, after)
		}
		if fundamental < 3 {
			t.Fatalf("%d chirps: autocorrelation peaked on the period on %d of 5 captures", chirps, fundamental)
		}
	}
}

// TestEstimatePeriodAllocFree pins the period search's steady state: one
// Decoder alternating between exchange-length (30720-sample), round-length
// (7680) and short (3720) captures, each at an SNR the header window reads
// and at one it hands to the whole-capture search, allocates nothing once
// its scratch has grown.
func TestEstimatePeriodAllocFree(t *testing.T) {
	s := newSetup(t, 5, 41)
	var caps [][]float64
	for _, chirps := range []int{256, 64, 31} {
		for _, snr := range []float64{25, 0} {
			x := slices.Clone(s.paddedCapture(t, []byte("allocs"), chirps, snr))
			if _, ok := s.dec.headerPeriod(x); ok != (snr > 0) {
				t.Fatalf("%d chirps at %v dB: header window confident %v", chirps, snr, ok)
			}
			caps = append(caps, x)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, x := range caps {
			if _, err := s.dec.EstimatePeriod(x); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("EstimatePeriod allocates %v times per round of %d captures, want 0", allocs, len(caps))
	}
}

// headedTrain is alternatingTrain behind a packet's header: the first
// header bursts all carry full power, and, as the front end draws them,
// each burst's tone starts at a random phase.
func headedTrain(n int, period, duty, weak, sigma, offset float64, header int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	phase := -1.0
	for i := range x {
		t := float64(i) + offset
		k := int(t / period)
		if in := t - float64(k)*period; in < duty*period {
			if in < 1 || phase < 0 {
				phase = 2 * math.Pi * rng.Float64()
			}
			a := 1.0
			if k >= header && k%2 == 1 {
				a = math.Sqrt(weak)
			}
			x[i] = a * math.Cos(2*math.Pi*0.05*in+phase)
		}
		x[i] += sigma * rng.NormFloat64()
	}
	return x
}

// TestHeaderPeriodReadsAlternatingPowerBehindAHeader puts bursts whose
// alternate members carry as little as 0.2 of the power behind a header of
// equal bursts. The header window sees only the header, so EstimatePeriod
// returns the burst period where the whole-capture search, on the weaker
// of these trains, returns twice it: the autocorrelation of the whole
// envelope peaks at 2·period and its sub-multiple gate keeps that peak.
func TestHeaderPeriodReadsAlternatingPowerBehindAHeader(t *testing.T) {
	d := newSetup(t, 5, 7).dec
	doubled := 0
	for _, n := range []int{7680, 30720} {
		for _, tr := range []struct{ duty, weak float64 }{{0.5, 0.2}, {0.5, 0.4}, {0.7, 0.3}, {0.7, 0.6}} {
			x := headedTrain(n, alternatingPeriod, tr.duty, tr.weak, 0.1, 31.4, headerWindowChirps, int64(n))
			if _, ok := d.headerPeriod(x); !ok {
				t.Fatalf("%d samples, duty %v, weak %v: header window not confident", n, tr.duty, tr.weak)
			}
			got, err := d.EstimatePeriod(x)
			if err != nil {
				t.Fatal(err)
			}
			if drift := math.Abs(got-alternatingPeriod) * float64(n) / alternatingPeriod; drift > periodTolerance {
				t.Fatalf("%d samples, duty %v, weak %v: period %v, want %v (drift %.2f samples)", n, tr.duty, tr.weak, got, alternatingPeriod, drift)
			}
			whole, err := d.searchPeriod(x)
			if err == nil && math.Abs(whole-2*alternatingPeriod) < 1 {
				doubled++
			}
			t.Logf("%d samples, duty %v, weak %v: period %.3f, whole-capture search %.3f (%v)", n, tr.duty, tr.weak, got, whole, err)
		}
	}
	if doubled == 0 {
		t.Fatal("the whole-capture search found the burst period on every train: the captures no longer show its defect")
	}
}

// TestHeaderPeriodCostsLessThanTheGoertzelBank counts, from the loop
// bounds, the fold and edge-walk accumulations of the header-window path
// on clean exchange- and round-length captures, and holds an
// exchange-length frame's total under the Goertzel bank's for its 256
// symbols (DefaultComputeModel, about 0.56 M). One accumulation per sample
// per fold: the window's phase squares and folds the window once and
// scans AlignChirpStart's circular edge (2·g per bin); the capture is
// squared once; each of the walk's two passes, the gate's fold at the
// fitted line and each sub-multiple it checks fold 2·combHalf samples per
// chirp and scan each fold's rises (2·edgeGate per position). The window's
// autocorrelation is two 2048-point real FFTs and is not counted.
func TestHeaderPeriodCostsLessThanTheGoertzelBank(t *testing.T) {
	s := newSetup(t, 5, 41)
	bank := DefaultComputeModel().GoertzelMACs() * 256
	for _, chirps := range []int{256, 64} {
		for _, snr := range []float64{10, 20, 30} {
			x := s.paddedCapture(t, []byte("fold count"), chirps, snr)
			p, ok := s.dec.headerPeriod(x)
			if !ok {
				t.Fatalf("%d chirps at %v dB: header window not confident", chirps, snr)
			}
			w := s.dec.headerWindow()
			bins := int(p)
			window := 2*w + bins*2*max(bins/8, 2)
			walked := int(float64(len(x)-combHalf)/p) + 1
			groups := (walked + walkGroup - 1) / walkGroup
			rises := (2*combHalf - 2*edgeGate + 1) * 2 * edgeGate
			folds := 2 + 1 // the walk's two passes and the gate's fold at the line
			for m := 2; p/float64(m) >= float64(s.dec.minPeriod()); m++ {
				folds++
			}
			walk := len(x) + folds*walked*2*combHalf + (2*groups+folds-2)*rises
			if chirps == 256 && window+walk > bank {
				t.Fatalf("%d chirps at %v dB: %d window + %d walk accumulations, over the Goertzel bank's %d", chirps, snr, window, walk, bank)
			}
			t.Logf("%d chirps at %v dB: %d window + %d walk = %d accumulations per frame (Goertzel bank %d per 256 symbols)", chirps, snr, window, walk, window+walk, bank)
		}
	}
}

// TestPeriodGateDepartsTowardTheTruth covers round-length captures at −3
// and 0 dB, where the frozen search can fold down to half the chirp
// period: the whole-capture search's gate blocks that sub-multiple, so
// wherever the two searches disagree, the gated one must be nearer the
// true period.
func TestPeriodGateDepartsTowardTheTruth(t *testing.T) {
	period := testPeriod * testFs
	departures := 0
	for _, seed := range []int64{41, 42, 43} {
		for _, bits := range []int{5, 3} {
			s := newSetup(t, bits, seed)
			for _, snr := range []float64{-3, 0} {
				x := s.paddedCapture(t, []byte("period oracle"), 64, snr)
				got, gotErr := s.dec.searchPeriod(x)
				want, wantErr := frozenEstimatePeriod(s.dec, x)
				if gotErr != nil || wantErr != nil {
					t.Fatalf("seed %d, %d bits at %v dB: errors %v, frozen search %v", seed, bits, snr, gotErr, wantErr)
				}
				if got == want {
					continue
				}
				departures++
				if math.Abs(got-period) >= math.Abs(want-period) {
					t.Fatalf("seed %d, %d bits at %v dB: period %v, frozen search %v, true %v", seed, bits, snr, got, want, period)
				}
				t.Logf("seed %d, %d bits at %v dB: period %.3f, frozen search %.3f", seed, bits, snr, got, want)
			}
		}
	}
	t.Logf("%d of 12 captures depart from the frozen search", departures)
}

// refineFolds counts the folds refinePeriod runs around p0 by walking its
// two grids with the same bounds and steps. It centres the fine grid on p0,
// not on the coarse winner, which can shift the count by one fold.
func refineFolds(p0 float64) int {
	n := 0
	span := p0 * 0.02
	step := span / 40
	for p := p0 - span; p <= p0+span; p += step {
		n++
	}
	for p := p0 - step; p <= p0+step; p += step / 10 {
		n++
	}
	return n
}

// TestTailContrastMatchesFullSort pins the selected-tail contrast against
// the full-sort one bit for bit, on random folds and on tie-heavy folds
// whose means take only a few distinct values, and on presorted folds, at
// every bin count from 4 to 300.
func TestTailContrastMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for bins := 4; bins <= 300; bins++ {
		for trial := 0; trial < 6; trial++ {
			means := make([]float64, bins)
			levels := 1 + trial // few distinct values force ties
			for i := range means {
				if trial < 3 {
					means[i] = float64(rng.Intn(levels))
				} else {
					means[i] = rng.ExpFloat64()
				}
			}
			// Real folds are ramps and plateaus: cover presorted input.
			switch trial {
			case 4:
				slices.Sort(means)
			case 5:
				slices.Sort(means)
				slices.Reverse(means)
			}
			scratch := make([]float64, bins)
			got := tailContrast(means, scratch)
			want := frozenSortedContrast(means)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bins %d trial %d: contrast %v, full sort %v", bins, trial, got, want)
			}
		}
	}
}
