package tag

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"biscatter/internal/dsp"
	"biscatter/internal/fault"
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

// paddedCapture captures a downlink frame for payload, padded with header
// chirps to the given chirp count, as core.Network.BuildDownlinkFrame pads
// a frame to the uplink's length.
func (s *testSetup) paddedCapture(t *testing.T, payload []byte, chirps int, snrDB float64) []float64 {
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
	return s.fe.CaptureFrame(frame, snrDB)
}

// TestEstimatePeriodMatchesFrozenSearch is the oracle for the period search
// restructurings: on exchange-length (256-chirp, 30720-sample) and
// round-length (64-chirp, 7680-sample) captures across SNR 5–30 dB, two
// constellations and three noise seeds, plus a fault-injected capture and a
// noise-only one, EstimatePeriod must agree with the frozen search bit for
// bit, error included. One Decoder serves every capture, so scratch reuse
// across lengths is covered too.
func TestEstimatePeriodMatchesFrozenSearch(t *testing.T) {
	type capture struct {
		name string
		x    []float64
	}
	var caps []capture
	add := func(name string, x []float64) { caps = append(caps, capture{name, x}) }
	clean := func(bits int, seed int64, chirps int, snr float64) {
		x := newSetup(t, bits, seed).paddedCapture(t, []byte("period oracle"), chirps, snr)
		if want := chirps * int(testPeriod*testFs); len(x) != want {
			t.Fatalf("capture of %d chirps holds %d samples, want %d", chirps, len(x), want)
		}
		add("clean", x)
	}
	for i, snr := range []float64{5, 10, 15, 20, 25, 30} {
		// The long captures dominate the run time (more so under -race),
		// so each SNR takes one, rotating constellation and seed.
		clean([]int{5, 3}[i%2], 41+int64(i%3), 256, snr)
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

	d := s.dec
	for i, c := range caps {
		got, gotErr := d.EstimatePeriod(c.x)
		want, wantErr := frozenEstimatePeriod(d, c.x)
		if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
			t.Fatalf("capture %d (%s, %d samples): error %v, frozen search %v", i, c.name, len(c.x), gotErr, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("capture %d (%s, %d samples): period %v, frozen search %v", i, c.name, len(c.x), got, want)
		}
	}
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
