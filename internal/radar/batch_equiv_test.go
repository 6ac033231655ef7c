package radar

import (
	"math"
	"math/rand"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
)

// singleToneProfile is the test oracle for the batched signature scan: for
// every range bin, gather the slow-time column and take its Goertzel power
// at fMod, one tone and one bin at a time.
func singleToneProfile(matrix [][]float64, fMod, period float64) []float64 {
	if len(matrix) == 0 {
		return nil
	}
	prof := make([]float64, len(matrix[0]))
	col := make([]float64, len(matrix))
	for b := range prof {
		for i := range col {
			col[i] = matrix[i][b]
		}
		prof[b] = dsp.GoertzelPower(col, fMod, 1/period)
	}
	return prof
}

// TestSignatureProfilesIntoMatchesSingle pins the batched multi-tone
// signature scan against the single-tone oracle, bit for bit, and requires
// the result to be byte-identical at 1, 4, and 8 workers — the
// worker-invariance contract extended to the batched fast path.
func TestSignatureProfilesIntoMatchesSingle(t *testing.T) {
	chirp := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 2e6}
	builder, err := fmcw.NewFrameBuilder(chirp, 120e-6)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := builder.BuildUniform(32, 60e-6)
	if err != nil {
		t.Fatal(err)
	}
	const period = 120e-6
	freqs := []float64{833, 1250, 1770, 2100}

	var reference [][]float64
	for _, workers := range []int{1, 4, 8} {
		rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), NFFT: 256, RangeBins: 64, Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		states := make([]bool, 32)
		for i := range states {
			states[i] = i%4 < 2 // a slow-time square wave the signature scan can find
		}
		cap := rd.Observe(frame, Scene{
			Clutter: []channel.Reflector{{Range: 3, RCSdBsm: 5}},
			Tags:    []TagEcho{{Range: 1.8, States: states, PowerDBm: -60}},
		})
		cm, _ := rd.CorrectedMatrix(cap)
		matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))

		batch := rd.SignatureProfilesInto(nil, matrix, freqs, period)
		if len(batch) != len(freqs) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(batch), len(freqs))
		}
		for i, f := range freqs {
			single := singleToneProfile(matrix, f, period)
			if len(batch[i]) != len(single) {
				t.Fatalf("workers=%d f=%v: batch row %d bins, single %d", workers, f, len(batch[i]), len(single))
			}
			for b := range single {
				if math.Float64bits(batch[i][b]) != math.Float64bits(single[b]) {
					t.Fatalf("workers=%d f=%v bin %d: batch %v, single %v", workers, f, b, batch[i][b], single[b])
				}
			}
		}
		if reference == nil {
			reference = batch
			continue
		}
		for i := range reference {
			for b := range reference[i] {
				if math.Float64bits(batch[i][b]) != math.Float64bits(reference[i][b]) {
					t.Fatalf("workers=%d f=%v bin %d: %v differs from workers=1 %v",
						workers, freqs[i], b, batch[i][b], reference[i][b])
				}
			}
		}
	}
}

// TestSignatureProfilesIntoEdgeCases covers the degenerate shapes the batch
// scan must tolerate: no tones, fewer tones than the last call, no chirps
// after a non-empty call, and row reuse across calls. Every call returns
// exactly one row per tone, one bin per range bin, and no stale rows.
func TestSignatureProfilesIntoEdgeCases(t *testing.T) {
	chirp := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 2e6}
	rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), NFFT: 128, RangeBins: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	matrix := [][]float64{{1, 2, 3}, {4, 5, 6}}
	if rows := rd.SignatureProfilesInto(nil, matrix, nil, 120e-6); len(rows) != 0 {
		t.Fatalf("no tones: got %d rows", len(rows))
	}
	first := rd.SignatureProfilesInto(nil, matrix, []float64{1250, 1770}, 120e-6)
	if len(first) != 2 || len(first[0]) != 3 || len(first[1]) != 3 {
		t.Fatalf("two tones over 3 bins: got %d rows", len(first))
	}
	second := rd.SignatureProfilesInto(first, matrix, []float64{1250}, 120e-6)
	if len(second) != 1 || len(second[0]) != 3 {
		t.Fatalf("one tone after two: got %d rows, want 1 of 3 bins", len(second))
	}
	if &second[0][0] != &first[0][0] {
		t.Error("row storage not reused across calls")
	}
	empty := rd.SignatureProfilesInto(second, nil, []float64{1250, 1770}, 120e-6)
	if len(empty) != 2 || len(empty[0]) != 0 || len(empty[1]) != 0 {
		t.Fatalf("no chirps after a non-empty call: got %d rows (%v), want 2 empty rows", len(empty), empty)
	}
}

// TestHannTableMatchesDirectWindow pins the cached range-FFT window against
// the formula the range FFT previously evaluated inline per chirp:
// w[k] = 0.5·(1 − cos(2πk/span)), with cum[n] the running coherent sum.
func TestHannTableMatchesDirectWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		span := 40 + rng.Float64()*400
		n := 1 + rng.Intn(256)
		var tab hannTable
		// Grow in two steps to prove history independence as well.
		tab.grow(span, n/2)
		tab.grow(span, n)
		var sum float64
		for k := 0; k < n; k++ {
			w := 0.5 * (1 - math.Cos(2*math.Pi*float64(k)/span))
			if math.Float64bits(tab.w[k]) != math.Float64bits(w) {
				t.Fatalf("span=%v n=%d k=%d: cached %v, direct %v", span, n, k, tab.w[k], w)
			}
			sum += w
			if math.Float64bits(tab.cum[k+1]) != math.Float64bits(sum) {
				t.Fatalf("span=%v n=%d k=%d: cum %v, direct %v", span, n, k, tab.cum[k+1], sum)
			}
		}
	}
}

// TestCorrectedMatrixMatchesFullSpectrum pins the IF correction against the
// path it replaced, bit for bit: window, full NFFT-point transform,
// normalization of every bin, a full-length real/imaginary split and cubic
// resampling. CorrectedMatrixContext transforms only the live prefix and
// normalizes and splits only the bins the grid's stencils read, so this
// covers both shortcuts, with and without a configured MaxRange (which sets
// how far the grid reaches into each chirp's spectrum). Exact zeros may
// differ in sign.
func TestCorrectedMatrixMatchesFullSpectrum(t *testing.T) {
	chirp := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6}
	builder, err := fmcw.NewFrameBuilder(chirp, 120e-6)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := builder.Build([]float64{20e-6, 31e-6, 45e-6, 60e-6, 77e-6, 96e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxRange := range []float64{0, 4, 9.5} {
		rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), NFFT: 1024, RangeBins: 96, MaxRange: maxRange, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cap := rd.Observe(frame, Scene{Clutter: []channel.Reflector{{Range: 2.5, RCSdBsm: 5}, {Range: 3.7, RCSdBsm: -2}}})
		got, grid := rd.CorrectedMatrix(cap)
		for i, c := range frame.Chirps {
			n := min(len(cap.IF[i]), rd.cfg.NFFT)
			buf := make([]complex128, rd.cfg.NFFT)
			win := rd.hannFor(c.Params.Duration, n)
			for k := 0; k < n; k++ {
				buf[k] = cap.IF[i][k] * complex(win.w[k], 0)
			}
			rd.plan.ForwardInto(buf, buf)
			if sumW := win.cum[n]; sumW > 0 {
				s := complex(1/sumW, 0)
				for k := range buf {
					buf[k] *= s
				}
			}
			re := make([]float64, len(buf))
			im := make([]float64, len(buf))
			for k, v := range buf {
				re[k], im[k] = real(v), imag(v)
			}
			step := rd.maxRangeFor(c.Params.Duration) / float64(rd.cfg.NFFT)
			reG := dsp.ResampleCubic(re, 0, step, grid)
			imG := dsp.ResampleCubic(im, 0, step, grid)
			for b := range grid {
				gr, gi := real(got[i][b]), imag(got[i][b])
				if !sameOrZero(gr, reG[b]) || !sameOrZero(gi, imG[b]) {
					t.Fatalf("MaxRange=%v chirp %d bin %d: %v, full-spectrum path %v",
						maxRange, i, b, got[i][b], complex(reG[b], imG[b]))
				}
			}
		}
	}
}

func sameOrZero(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
}
