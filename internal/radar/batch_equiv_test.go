package radar

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
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

// directDTFTRow is the IF-correction oracle: chirp i's windowed samples,
// normalized by the window's coherent sum, evaluated as a direct DTFT at
// each grid range's IF frequency for that chirp, grid[j]/rmax_i cycles per
// sample. The product f·n is reduced modulo 1 before the angle is formed.
func directDTFTRow(rd *Radar, cap *Capture, i int, grid []float64) []complex128 {
	x := cap.IF[i]
	d := cap.Frame.Chirps[i].Params.Duration
	span := d * rd.cfg.Chirp.SampleRate
	rmax := rd.maxRangeFor(d)
	y := make([]complex128, len(x))
	var sumW float64
	for n := range x {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(n)/span))
		y[n] = x[n] * complex(w, 0)
		sumW += w
	}
	row := make([]complex128, len(grid))
	for j, g := range grid {
		f := g / rmax
		var acc complex128
		for n, v := range y {
			s, c := math.Sincos(-2 * math.Pi * math.Mod(f*float64(n), 1))
			acc += v * complex(c, s)
		}
		row[j] = acc / complex(sumW, 0)
	}
	return row
}

// correctionFrame builds a frame of CSSK-like chirps from 20 to 96 µs at
// 4 MHz and 1 GHz (80–384 samples; the 20 µs chirp's unambiguous range is
// 11.99 m) and a scene of two walls, a weak switching tag and receiver noise.
func correctionFrame(t *testing.T) (fmcw.ChirpParams, *fmcw.Frame, Scene) {
	t.Helper()
	chirp := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6}
	builder, err := fmcw.NewFrameBuilder(chirp, 120e-6)
	if err != nil {
		t.Fatal(err)
	}
	durs := []float64{20e-6, 31e-6, 45e-6, 60e-6, 77e-6, 96e-6, 45e-6, 45e-6, 20e-6}
	frame, err := builder.Build(durs)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]bool, len(durs))
	for i := range states {
		states[i] = i%2 == 0
	}
	return chirp, frame, Scene{
		Clutter: []channel.Reflector{{Range: 2.5, RCSdBsm: 5}, {Range: 3.7, RCSdBsm: -2}},
		Tags:    []TagEcho{{Range: 1.9, States: states, PowerDBm: -80}},
	}
}

// TestCorrectedMatrixMatchesDirectDTFT pins the chirp-z IF correction
// against the direct-DTFT oracle: every row within 1e-12 of its own peak,
// over grids that reach the steepest chirp's unambiguous range (MaxRange
// 0), stop short of it (9.5 m) or cover only the first third (4 m), at 96
// and 512 range bins. The rows are byte-identical at 1, 2 and 4 workers.
func TestCorrectedMatrixMatchesDirectDTFT(t *testing.T) {
	chirp, frame, scene := correctionFrame(t)
	for _, bins := range []int{96, 512} {
		for _, maxRange := range []float64{0, 4, 9.5} {
			var ref [][]complex128
			for _, workers := range []int{1, 2, 4} {
				rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), RangeBins: bins, MaxRange: maxRange, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				cap := rd.Observe(frame, scene)
				got, grid := rd.CorrectedMatrix(cap)
				if got == nil {
					t.Fatalf("bins=%d MaxRange=%v: no corrected matrix", bins, maxRange)
				}
				if ref != nil {
					for i := range got {
						for b := range got[i] {
							g, w := got[i][b], ref[i][b]
							if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
								t.Fatalf("bins=%d MaxRange=%v workers=%d chirp %d bin %d: %v, workers=1 %v", bins, maxRange, workers, i, b, g, w)
							}
						}
					}
					continue
				}
				ref = make([][]complex128, len(got))
				for i := range got {
					ref[i] = append([]complex128(nil), got[i]...)
					want := directDTFTRow(rd, cap, i, grid)
					var peak, worst float64
					for b := range want {
						peak = max(peak, cmplx.Abs(want[b]))
						worst = max(worst, cmplx.Abs(got[i][b]-want[b]))
					}
					if worst > 1e-12*peak {
						t.Fatalf("bins=%d MaxRange=%v chirp %d (%d samples): off the direct DTFT by %.3g of the row peak",
							bins, maxRange, i, len(cap.IF[i]), worst/peak)
					}
				}
			}
		}
	}
}

// TestCorrectedMatrixRejectsAliasingGrid checks Config.MaxRange's bound:
// the chirp-z evaluates a periodic DTFT, so a grid reaching past the
// steepest chirp's unambiguous range (11.99 m for 20 µs at 4 MHz and 1 GHz)
// would alias silently. It must fail, naming both ranges.
func TestCorrectedMatrixRejectsAliasingGrid(t *testing.T) {
	chirp, frame, scene := correctionFrame(t)
	for _, tc := range []struct {
		maxRange float64
		ok       bool
	}{{9.5, true}, {13, false}} {
		rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), MaxRange: tc.maxRange, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cm, _, err := rd.CorrectedMatrixContext(t.Context(), rd.Observe(frame, scene))
		if tc.ok {
			if err != nil || len(cm) != len(frame.Chirps) {
				t.Errorf("MaxRange %v: %d rows, err %v; want a matrix", tc.maxRange, len(cm), err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "13 m") || !strings.Contains(err.Error(), "11.99 m") {
			t.Errorf("MaxRange %v: err %v, want one naming 13 m and 11.99 m", tc.maxRange, err)
		}
		if cm != nil {
			t.Errorf("MaxRange %v: got a matrix alongside the error", tc.maxRange)
		}
	}
}
