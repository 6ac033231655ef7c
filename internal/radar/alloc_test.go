package radar

import (
	"math"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/fmcw"
)

// workerRowBytes sums the capacity of the radar's per-worker scratch rows.
func workerRowBytes(r *Radar) int {
	total := 0
	for _, row := range r.scr.cwork {
		total += 16 * cap(row)
	}
	for _, row := range r.scr.fwork {
		total += 8 * cap(row)
	}
	return total
}

// TestRadarWorkerRowsFootprintStabilizes drives the full receive pipeline
// repeatedly and checks the radar's per-worker scratch rows: they must
// reach their high-water mark within the first frames and stay flat —
// growth after warm-up means some per-chirp or per-bin buffer is not
// reused.
func TestRadarWorkerRowsFootprintStabilizes(t *testing.T) {
	r := testRadar(t, 90)
	b := testBuilder(t)
	const nChirps = 64
	const fMod = 2e3
	scene := Scene{
		Clutter: channel.OfficeClutter(),
		Tags:    []TagEcho{{Range: 3.0, States: toneStates(fMod, nChirps), PowerDBm: -95}},
	}
	var after2 int
	for iter := 0; iter < 20; iter++ {
		frame, err := b.BuildUniform(nChirps, 60e-6)
		if err != nil {
			t.Fatal(err)
		}
		cap := r.Observe(frame, scene)
		cm, grid := r.CorrectedMatrix(cap)
		matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
		if _, err := r.DetectTag(matrix, grid, fMod, tPeriod); err != nil {
			t.Fatal(err)
		}
		if iter == 1 {
			after2 = workerRowBytes(r)
		}
	}
	got := workerRowBytes(r)
	if got != after2 {
		t.Fatalf("radar worker rows grew after warm-up: %d B after 2 frames, %d B after 20", after2, got)
	}
	if after2 == 0 {
		t.Fatal("radar worker rows are empty; the pipeline is not using them")
	}
}

// TestScratchReuseMatchesFreshRadar pins the zeroing the reused scratch
// needs: a radar that has processed a longer input first must give a
// fresh radar's results bit for bit on a shorter one. The chirp-z work row
// must be zero past the chirp's samples, and the slow-time columns of
// RangeDoppler and EstimateVelocity are zero-padded; a short input that
// lands in the same power-of-two buffer as the long one sees the long
// one's leftovers unless each is cleared. One worker keeps every loop on
// the same row.
func TestScratchReuseMatchesFreshRadar(t *testing.T) {
	newRadar := func() *Radar {
		r, err := New(Config{
			Chirp:   fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6},
			Link:    channel.DefaultLink(),
			Seed:    93,
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	b := testBuilder(t)
	scene := Scene{Clutter: []channel.Reflector{{Range: 3, RCSdBsm: 5, Velocity: 0.4}}}
	capture := func(nChirps int, duration float64) *Capture {
		frame, err := b.BuildUniform(nChirps, duration)
		if err != nil {
			t.Fatal(err)
		}
		return newRadar().Observe(frame, scene)
	}
	// 80 µs and 40 µs chirps both take a 1024-point chirp-z work buffer;
	// 128 and 100 chirps both take 128- and 512-point slow-time FFTs.
	long, short := capture(128, 80e-6), capture(100, 40e-6)

	type result struct {
		cm  [][]complex128
		rd  [][]float64
		vel float64
	}
	// Each stage of the reference runs on a radar of its own, so it reads
	// only freshly allocated scratch.
	run := func(cm, rd, vel *Radar, cap *Capture) result {
		m, _ := cm.CorrectedMatrix(cap)
		v, err := vel.EstimateVelocity(m, StrongestBin(m), tPeriod)
		if err != nil {
			t.Fatal(err)
		}
		return result{cm: m, rd: rd.RangeDoppler(m), vel: v}
	}
	r := newRadar()
	run(r, r, r, long)
	got, want := run(r, r, r, short), run(newRadar(), newRadar(), newRadar(), short)
	for i := range want.cm {
		for j := range want.cm[i] {
			if got.cm[i][j] != want.cm[i][j] {
				t.Fatalf("CorrectedMatrix row %d bin %d: %v after a longer capture, %v fresh", i, j, got.cm[i][j], want.cm[i][j])
			}
		}
	}
	for d := range want.rd {
		for j := range want.rd[d] {
			if math.Float64bits(got.rd[d][j]) != math.Float64bits(want.rd[d][j]) {
				t.Fatalf("RangeDoppler cell %d/%d: %v after a longer matrix, %v fresh", d, j, got.rd[d][j], want.rd[d][j])
			}
		}
	}
	if math.Float64bits(got.vel) != math.Float64bits(want.vel) {
		t.Fatalf("EstimateVelocity: %v after a longer matrix, %v fresh", got.vel, want.vel)
	}
}
