package radar

import (
	"encoding/binary"
	"math"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/fmcw"
)

// FuzzIFCorrection feeds arbitrary IF captures — wrong row lengths, empty
// rows, NaN and infinite samples, any mix of chirp slopes — through the IF
// correction and the slow-time processing that consumes it. None of it may
// panic: a capture is radio input, and corrupt radio input must degrade into
// errors or garbage bins, never a crash.
func FuzzIFCorrection(f *testing.F) {
	chirp := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 2e6}
	rd, err := New(Config{Chirp: chirp, Link: channel.DefaultLink(), NFFT: 256, RangeBins: 64, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	builder, err := fmcw.NewFrameBuilder(chirp, 120e-6)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: a clean capture, a truncated one, and special float values.
	clean := func() []byte {
		frame, err := builder.BuildUniform(4, 60e-6)
		if err != nil {
			f.Fatal(err)
		}
		cap := rd.Observe(frame, Scene{Clutter: []channel.Reflector{{Range: 3, RCSdBsm: 5}}})
		var out []byte
		out = append(out, 4)
		for _, row := range cap.IF {
			for _, v := range row[:8] {
				var b [16]byte
				binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
				out = append(out, b[:]...)
			}
		}
		return out
	}()
	f.Add(clean)
	f.Add(clean[:len(clean)/3])
	f.Add([]byte{1})
	f.Add([]byte{8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF0, 0x7F}) // +Inf real part
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		nChirps := 1
		if len(data) > 0 {
			nChirps = int(data[0]%8) + 1
			data = data[1:]
		}
		// Chirp durations cycle through the CSSK band [20 µs, 96 µs] so the
		// correction has genuinely different slopes to reconcile.
		durs := make([]float64, nChirps)
		for i := range durs {
			sel := byte(i)
			if i < len(data) {
				sel = data[i]
			}
			durs[i] = 20e-6 + float64(sel%8)*10.857e-6
		}
		frame, err := builder.Build(durs)
		if err != nil {
			t.Fatalf("builder rejected in-band durations: %v", err)
		}
		// Deal the remaining bytes out as complex IF samples, 16 bytes each,
		// round-robin across chirps: row lengths end up arbitrary (often zero,
		// sometimes longer than SamplesPerChirp) and values include NaN/Inf.
		rows := make([][]complex128, nChirps)
		for i := 0; i+16 <= len(data); i += 16 {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:]))
			r := (i / 16) % nChirps
			rows[r] = append(rows[r], complex(re, im))
		}
		cap := &Capture{Frame: frame, IF: rows}

		cm, grid, err := rd.CorrectedMatrixContext(t.Context(), cap)
		if err != nil {
			return
		}
		if len(cm) != nChirps || len(grid) != 64 {
			t.Fatalf("corrected matrix %dx%d, want %dx64", len(cm), len(grid), nChirps)
		}
		matrix := SubtractBackgroundMag(MagnitudeMatrix(cm))
		prof := rd.SignatureProfilesInto(nil, matrix, []float64{1250}, 120e-6)[0]
		if len(prof) != len(grid) {
			t.Fatalf("signature profile %d bins, want %d", len(prof), len(grid))
		}
		for b, v := range singleToneProfile(matrix, 1250, 120e-6) {
			if math.Float64bits(v) != math.Float64bits(prof[b]) {
				t.Fatalf("bin %d: batched scan %v, single-tone oracle %v", b, prof[b], v)
			}
		}
		cfg := UplinkFSKConfig{F0: 1250, F1: 1770, ChirpsPerBit: 2, Period: 120e-6}
		if _, err := rd.DecodeUplinkFSK(matrix, 0, cfg); err != nil {
			return // short captures legitimately fail to demodulate
		}
		rd.RangeDoppler(SubtractBackground(cm))
	})
}
