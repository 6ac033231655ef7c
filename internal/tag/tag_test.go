package tag

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/packet"
)

const (
	testPeriod = 120e-6
	testFs     = 1e6
	testFc     = 9.5e9
)

// testSetup builds a coherent (pair, alphabet, front-end, decoder, frame
// builder) stack around the paper's 9 GHz / 45-inch configuration.
type testSetup struct {
	pair    delayline.Pair
	alpha   *cssk.Alphabet
	fe      *FrontEnd
	dec     *Decoder
	builder *fmcw.FrameBuilder
	pkt     packet.Config
}

func newSetup(t testing.TB, bits int, seed int64) *testSetup {
	t.Helper()
	pair, err := delayline.NewCoaxPair(45*delayline.MetersPerInch, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cal := delayline.FromPair(pair, testFc)
	alpha, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        1e9,
		Period:           testPeriod,
		MinChirpDuration: 20e-6,
		DeltaT:           cal.EffectiveDeltaT,
		MinBeatSpacing:   500,
		SymbolBits:       bits,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontEnd(pair, testFs, testFc, seed)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(alpha, testFs)
	if err != nil {
		t.Fatal(err)
	}
	base := fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6}
	builder, err := fmcw.NewFrameBuilder(base, testPeriod)
	if err != nil {
		t.Fatal(err)
	}
	return &testSetup{
		pair:    pair,
		alpha:   alpha,
		fe:      fe,
		dec:     dec,
		builder: builder,
		pkt:     packet.Config{Alphabet: alpha, HeaderLen: 8, SyncLen: 2},
	}
}

// decodePacket decodes a capture to its downlink payload: the decoder's
// frame pipeline, then the packet framing.
func decodePacket(d *Decoder, x []float64, pkt packet.Config) ([]byte, error) {
	syms, _, err := d.DecodeFrame(x)
	if err != nil {
		return nil, err
	}
	payload, _, err := pkt.DecodeStats(syms)
	return payload, err
}

func (s *testSetup) frameFor(t testing.TB, payload []byte) *fmcw.Frame {
	t.Helper()
	durs, err := s.pkt.Durations(payload)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := s.builder.Build(durs)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestNewFrontEndValidation(t *testing.T) {
	pair, _ := delayline.NewCoaxPair(0.5, 0.7)
	if _, err := NewFrontEnd(delayline.Pair{}, testFs, testFc, 1); err == nil {
		t.Error("invalid pair should fail")
	}
	if _, err := NewFrontEnd(pair, 0, testFc, 1); err == nil {
		t.Error("zero sample rate should fail")
	}
	if _, err := NewFrontEnd(pair, testFs, 0, 1); err == nil {
		t.Error("zero center frequency should fail")
	}
}

func TestNewDecoderValidation(t *testing.T) {
	s := newSetup(t, 5, 1)
	if _, err := NewDecoder(nil, testFs); err == nil {
		t.Error("nil alphabet should fail")
	}
	if _, err := NewDecoder(s.alpha, 0); err == nil {
		t.Error("zero sample rate should fail")
	}
	// An ADC too slow for the constellation's top beat must be rejected.
	if _, err := NewDecoder(s.alpha, 100e3); err == nil {
		t.Error("sub-Nyquist sample rate should fail")
	}
}

func TestCaptureBeatFrequencyMatchesEquation11(t *testing.T) {
	// The front-end's per-chirp tone must sit at α·ΔT.
	s := newSetup(t, 5, 2)
	for _, dur := range []float64{20e-6, 48e-6, 96e-6} {
		frame, err := s.builder.BuildUniform(20, dur)
		if err != nil {
			t.Fatal(err)
		}
		x := s.fe.CaptureFrame(frame, 60)
		want := s.pair.ExpectedBeat(1e9/dur, testFc)
		// Concatenate chirp-active regions and measure dominant frequency.
		p := int(testPeriod * testFs)
		cn := int(dur * testFs)
		var active []float64
		for k := 0; k < 20; k++ {
			start := k * p
			active = append(active, x[start:start+cn]...)
		}
		// Use Goertzel scan around the expected beat.
		bestF, bestP := 0.0, -1.0
		for f := want * 0.5; f <= want*1.5; f += want / 200 {
			if pw := dsp.GoertzelPower(x[:cn], f, testFs); pw > bestP {
				bestP, bestF = pw, f
			}
		}
		_ = active
		if math.Abs(bestF-want)/want > 0.1 {
			t.Fatalf("dur %v: measured beat %v, want %v", dur, bestF, want)
		}
	}
}

func TestCaptureLengthAndGaps(t *testing.T) {
	s := newSetup(t, 5, 3)
	frame, _ := s.builder.BuildUniform(10, 60e-6)
	x := s.fe.CaptureFrame(frame, 100) // essentially noise-free
	wantLen := int(frame.Duration() * testFs)
	if len(x) != wantLen {
		t.Fatalf("capture length %d, want %d", len(x), wantLen)
	}
	// Inter-chirp gaps must be silent.
	p := int(testPeriod * testFs)
	cn := int(60e-6 * testFs)
	for k := 0; k < 10; k++ {
		gap := x[k*p+cn+1 : (k+1)*p]
		if dsp.RMS(gap) > 0.01 {
			t.Fatalf("chirp %d gap not silent: RMS %v", k, dsp.RMS(gap))
		}
	}
}

func TestCaptureOffsetAndTail(t *testing.T) {
	s := newSetup(t, 5, 4)
	frame, _ := s.builder.BuildUniform(10, 60e-6)
	full := s.fe.Capture(frame, 100, 0, 0)
	off := s.fe.Capture(frame, 100, 2.5*testPeriod, 500e-6)
	wantLen := int((frame.Duration() - 2.5*testPeriod + 500e-6) * testFs)
	if len(off) != wantLen {
		t.Fatalf("offset capture length %d, want %d", len(off), wantLen)
	}
	_ = full
	// The tail must be noise-only (silent at high SNR).
	tail := off[len(off)-int(400e-6*testFs):]
	if dsp.RMS(tail) > 0.01 {
		t.Fatalf("tail not silent: %v", dsp.RMS(tail))
	}
}

func TestEstimatePeriodAccuracy(t *testing.T) {
	s := newSetup(t, 5, 5)
	frame, _ := s.builder.BuildUniform(30, 96e-6) // header-like run
	x := s.fe.CaptureFrame(frame, 30)
	period, err := s.dec.EstimatePeriod(x)
	if err != nil {
		t.Fatal(err)
	}
	want := testPeriod * testFs
	if math.Abs(period-want) > 2 {
		t.Fatalf("period %v samples, want %v", period, want)
	}
}

func TestEstimatePeriodErrors(t *testing.T) {
	s := newSetup(t, 5, 6)
	if _, err := s.dec.EstimatePeriod(make([]float64, 10)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short capture: %v", err)
	}
	// Pure noise has no period.
	noise := make([]float64, 4000)
	rng := rand.New(rand.NewSource(7))
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if _, err := s.dec.EstimatePeriod(noise); err == nil {
		t.Fatal("pure noise should not yield a period")
	}
}

func TestAlignChirpStartFindsGapEnd(t *testing.T) {
	s := newSetup(t, 5, 8)
	frame, _ := s.builder.BuildUniform(20, 80e-6)
	// Offset the capture so chirps start mid-period.
	const offset = 37e-6
	x := s.fe.Capture(frame, 40, offset, 2*testPeriod)
	period := testPeriod * testFs
	start := s.dec.AlignChirpStart(x, period)
	// Chirp k starts at k·P − offset; modulo P that's P − offset ≈ 83 µs.
	want := int((testPeriod - offset) * testFs)
	diff := math.Abs(float64(start - want))
	if diff > float64(period)/2 {
		diff = float64(period) - diff // circular distance
	}
	if diff > 3 {
		t.Fatalf("chirp start %d, want ≈%d", start, want)
	}
}

// TestDecodeFrameKeepsTheChirpAtSampleZero pins the chirp-start wrap. On a
// clean capture the first chirp starts at sample 0; when the period
// estimate sits a hair above the true period, the fold wraps that rising
// edge onto its last bin and AlignChirpStart returns period−1. DecodeSymbols
// must still decode the chirp at sample 0, so every clean frame yields one
// symbol per chirp, the first a header symbol.
func TestDecodeFrameKeepsTheChirpAtSampleZero(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 40; seed++ {
		s := newSetup(t, 5, seed)
		for _, chirps := range []int{64, 256} {
			x := s.paddedCapture(t, []byte("wrap"), chirps, 25)
			syms, diag, err := s.dec.DecodeFrame(x)
			if err != nil {
				t.Fatal(err)
			}
			if diag.PeriodSamples-float64(diag.ChirpStart) <= edgeReach {
				wrapped++
			}
			if diag.Symbols != chirps {
				t.Fatalf("seed %d, %d chirps: %d symbols from chirp start %d at period %v", seed, chirps, diag.Symbols, diag.ChirpStart, diag.PeriodSamples)
			}
			if syms[0] != s.alpha.Header() {
				t.Fatalf("seed %d, %d chirps: first symbol %v, want the header", seed, chirps, syms[0])
			}
		}
	}
	// The wrap itself, at a period a hundredth of a sample long.
	s := newSetup(t, 5, 1)
	x := s.paddedCapture(t, []byte("wrap"), 64, 25)
	period := testPeriod*testFs + 0.01
	start := s.dec.AlignChirpStart(x, period)
	if period-float64(start) > edgeReach {
		t.Fatalf("chirp start %d at period %v: the fold did not wrap", start, period)
	}
	if syms := s.dec.DecodeSymbols(x, period, start); len(syms) != 64 || syms[0] != s.alpha.Header() {
		t.Fatalf("%d symbols from chirp start %d, want 64 from the header on", len(syms), start)
	}
	t.Logf("%d of 80 clean frames wrapped their chirp start", wrapped)
}

func TestDecodeSymbolsCleanChannel(t *testing.T) {
	s := newSetup(t, 5, 9)
	payload := []byte("hello tag")
	frame := s.frameFor(t, payload)
	x := s.fe.CaptureFrame(frame, 50)
	syms, diag, err := s.dec.DecodeFrame(x)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Symbols < len(frame.Chirps)-1 {
		t.Fatalf("decoded %d symbols from %d chirps", diag.Symbols, len(frame.Chirps))
	}
	got, _, err := s.pkt.DecodeStats(syms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

// TestFramedDecoderStopsAtPayloadEnd decodes padded frames, as the radar
// pads them to the uplink's length, with a decoder that knows its packet
// framing (tag.New's, the one core builds) and with a bare one. The bare
// decoder returns one symbol per chirp slot of a clean frame. The framed one
// returns the bare one's first symbols, fewer than half of them on a clean
// frame, and the same payload, FEC stats and error. So does the walk of
// EstimatePeriod, AlignChirpStart and DecodeSymbols on a fresh framed
// decoder, which builds its tone tables in DecodeSymbols.
func TestFramedDecoderStopsAtPayloadEnd(t *testing.T) {
	const chirps = 128
	for seed := int64(1); seed <= 6; seed++ {
		for _, snr := range []float64{25, 8} {
			s := newSetup(t, 5, seed)
			framed := func() *Decoder {
				tg, err := New(Config{Pair: s.pair, Packet: s.pkt, CenterFrequency: testFc})
				if err != nil {
					t.Fatal(err)
				}
				return tg.Decoder
			}
			x := s.paddedCapture(t, []byte("stop"), chirps, snr)
			all, diag, err := s.dec.DecodeFrame(x)
			if err != nil {
				t.Fatal(err)
			}
			if snr == 25 && len(all) != chirps {
				t.Fatalf("seed %d: bare decoder returned %d symbols from %d chirps", seed, len(all), chirps)
			}
			got, fdiag, err := framed().DecodeFrame(x)
			if err != nil {
				t.Fatal(err)
			}
			dec := framed()
			period, err := dec.EstimatePeriod(x)
			if err != nil {
				t.Fatal(err)
			}
			walked := dec.DecodeSymbols(x, period, dec.AlignChirpStart(x, period))
			wp, ws, werr := s.pkt.DecodeStats(all)
			for _, syms := range [][]cssk.Symbol{got, walked} {
				if len(syms) > len(all) || !slices.Equal(syms, all[:len(syms)]) {
					t.Fatalf("seed %d, %v dB: framed decoder returned %d symbols, not a prefix of the bare decoder's %d", seed, snr, len(syms), len(all))
				}
				if snr == 25 && len(syms) >= chirps/2 {
					t.Fatalf("seed %d: framed decoder classified %d of %d chirp slots of a clean frame", seed, len(syms), chirps)
				}
				gp, gs, gerr := s.pkt.DecodeStats(syms)
				if !bytes.Equal(gp, wp) || gs != ws || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("seed %d, %v dB: %d symbols decode to %q %+v %v, all %d to %q %+v %v", seed, snr, len(syms), gp, gs, gerr, len(all), wp, ws, werr)
				}
			}
			if fdiag.Symbols != len(got) || fdiag.PeriodSamples != diag.PeriodSamples || fdiag.ChirpStart != diag.ChirpStart {
				t.Fatalf("seed %d, %v dB: framed diagnostics %+v, bare %+v", seed, snr, fdiag, diag)
			}
		}
	}
}

func TestDecodePacketEndToEnd(t *testing.T) {
	s := newSetup(t, 5, 10)
	payload := []byte{0x42, 0x00, 0xFF, 0x17}
	frame := s.frameFor(t, payload)
	x := s.fe.CaptureFrame(frame, 40)
	got, err := decodePacket(s.dec, x, s.pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %v, want %v", got, payload)
	}
}

func TestDecodePacketSurvivesMidPacketWake(t *testing.T) {
	// The tag wakes up after a third of the header has passed.
	s := newSetup(t, 5, 11)
	payload := []byte("wake")
	frame := s.frameFor(t, payload)
	x := s.fe.Capture(frame, 40, 2.4*testPeriod, 0)
	got, err := decodePacket(s.dec, x, s.pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestDecodeRoundTripAcrossSymbolSizesProperty(t *testing.T) {
	// Capped at 5 bits/symbol: the paper's own Fig. 12 shows BER above 1e-3
	// beyond that, so occasional adjacent-symbol errors at 6+ bits are
	// physical, not bugs.
	f := func(seed int64, bitsSel, payloadSeed uint8) bool {
		bits := 2 + int(bitsSel)%4 // 2..5 bits per symbol
		s := newSetup(t, bits, seed)
		rng := rand.New(rand.NewSource(int64(payloadSeed)))
		payload := make([]byte, 1+rng.Intn(6))
		rng.Read(payload)
		frame := s.frameFor(t, payload)
		x := s.fe.CaptureFrame(frame, 45)
		got, err := decodePacket(s.dec, x, s.pkt)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTMethodDecodesCleanChannel(t *testing.T) {
	s := newSetup(t, 4, 12)
	s.dec.Method = MethodFFT
	payload := []byte("fft path")
	frame := s.frameFor(t, payload)
	x := s.fe.CaptureFrame(frame, 50)
	got, err := decodePacket(s.dec, x, s.pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestLowSNRProducesErrors(t *testing.T) {
	// At strongly negative SNR, decoding must fail (preamble lost or CRC).
	s := newSetup(t, 5, 13)
	payload := []byte("noise floor")
	frame := s.frameFor(t, payload)
	x := s.fe.CaptureFrame(frame, -20)
	if got, err := decodePacket(s.dec, x, s.pkt); err == nil && bytes.Equal(got, payload) {
		t.Fatal("decoding at -20 dB SNR should not succeed")
	}
}

func TestMethodString(t *testing.T) {
	if MethodGoertzel.String() != "goertzel" || MethodFFT.String() != "fft" ||
		Method(7).String() != "Method(7)" {
		t.Fatal("unexpected Method strings")
	}
}

func TestModulatorValidation(t *testing.T) {
	if _, err := NewModulator(SchemeOOK, 1e3, 0, 0, 4); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := NewModulator(SchemeOOK, 1e3, 0, testPeriod, 1); err == nil {
		t.Error("1 chirp per bit should fail")
	}
	if _, err := NewModulator(SchemeOOK, 5e3, 0, testPeriod, 8); err == nil {
		t.Error("F0 above chirp Nyquist should fail")
	}
	if _, err := NewModulator(SchemeFSK, 1e3, 1e3, testPeriod, 64); err == nil {
		t.Error("identical FSK tones should fail")
	}
	if _, err := NewModulator(SchemeFSK, 1e3, 2e3, testPeriod, 2); err == nil {
		t.Error("bit window shorter than one tone cycle should fail")
	}
	if _, err := NewModulator(SchemeFSK, 1e3, 2e3, testPeriod, 16); err != nil {
		t.Errorf("valid FSK modulator rejected: %v", err)
	}
}

func TestModulatorOOKStates(t *testing.T) {
	m, err := NewModulator(SchemeOOK, 1e3, 0, testPeriod, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 0-bit: statically reflective.
	states := m.StatesInto(nil, []bool{false}, testPeriod, 8)
	for i, st := range states {
		if !st {
			t.Fatalf("0-bit chirp %d should be reflective", i)
		}
	}
	// 1-bit: toggling at F0 = 1 kHz (period 1 ms ≈ 8.3 chirps): both states
	// must appear within a bit of 8 chirps... use a faster tone.
	m2, _ := NewModulator(SchemeOOK, 4e3, 0, testPeriod, 8)
	states = m2.StatesInto(nil, []bool{true}, testPeriod, 8)
	var on, off int
	for _, st := range states {
		if st {
			on++
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("1-bit should toggle: on=%d off=%d", on, off)
	}
}

func TestModulatorFSKStatesFrequency(t *testing.T) {
	m, err := NewModulator(SchemeFSK, 1e3, 2e3, testPeriod, 32)
	if err != nil {
		t.Fatal(err)
	}
	countTransitions := func(states []bool) int {
		n := 0
		for i := 1; i < len(states); i++ {
			if states[i] != states[i-1] {
				n++
			}
		}
		return n
	}
	s0 := m.StatesInto(nil, []bool{false}, testPeriod, 32)
	s1 := m.StatesInto(nil, []bool{true}, testPeriod, 32)
	if countTransitions(s1) <= countTransitions(s0) {
		t.Fatalf("F1 bit should toggle faster: %d vs %d transitions",
			countTransitions(s1), countTransitions(s0))
	}
}

func TestUplinkSchemeString(t *testing.T) {
	if SchemeOOK.String() != "ook" || SchemeFSK.String() != "fsk" ||
		UplinkScheme(5).String() != "UplinkScheme(5)" {
		t.Fatal("unexpected scheme strings")
	}
}

func TestPowerModelPaperNumbers(t *testing.T) {
	p := DefaultPowerModel()
	// §4.1: continuous mode ≈48 mW.
	if c := p.Continuous(); math.Abs(c-48e-3) > 1e-3 {
		t.Fatalf("continuous power %v W, want ≈48 mW", c)
	}
	// Custom IC projection ≈4 mW.
	if ic := p.CustomIC(); math.Abs(ic-4e-3) > 0.5e-3 {
		t.Fatalf("custom IC power %v W, want ≈4 mW", ic)
	}
	// Uplink-only mode is µW-scale (switch + PWM + sleeping MCU).
	seq, err := p.Sequential(0)
	if err != nil {
		t.Fatal(err)
	}
	if seq > 10e-6 {
		t.Fatalf("uplink-only power %v W, want < 10 µW", seq)
	}
	// Full-downlink sequential equals continuous.
	seq1, _ := p.Sequential(1)
	if math.Abs(seq1-p.Continuous()) > 1e-9 {
		t.Fatalf("sequential(1) = %v, want continuous %v", seq1, p.Continuous())
	}
	if _, err := p.Sequential(1.5); err == nil {
		t.Fatal("fraction > 1 should fail")
	}
	bd := p.Breakdown()
	var sum float64
	for _, v := range bd {
		sum += v
	}
	if math.Abs(sum-p.Continuous()) > 1e-12 {
		t.Fatal("breakdown should sum to continuous power")
	}
}

func TestSequentialMonotoneInDownlinkFraction(t *testing.T) {
	p := DefaultPowerModel()
	f := func(a, b uint8) bool {
		fa, fb := float64(a)/255, float64(b)/255
		pa, err1 := p.Sequential(fa)
		pb, err2 := p.Sequential(fb)
		if err1 != nil || err2 != nil {
			return false
		}
		if fa < fb {
			return pa <= pb
		}
		return pa >= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTagAssembly(t *testing.T) {
	s := newSetup(t, 5, 20)
	mod, _ := NewModulator(SchemeOOK, 2e3, 0, testPeriod, 8)
	tg, err := New(Config{
		Pair:            s.pair, // alphabet was calibrated for this pair
		Packet:          s.pkt,
		CenterFrequency: testFc,
		Modulator:       mod,
		Seed:            21,
		ID:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tg.FrontEnd.SampleRate != ADCRate || tg.Decoder.SampleRate != ADCRate {
		t.Fatal("front-end and decoder should sample at ADCRate")
	}
	payload := []byte("assembled")
	frame := s.frameFor(t, payload)
	got, err := decodePacket(tg.Decoder, tg.FrontEnd.CaptureFrame(frame, 40), s.pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
	states, err := tg.UplinkStates([]bool{true, false}, testPeriod, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 16 {
		t.Fatalf("states length %d", len(states))
	}
}

func TestTagConfigValidation(t *testing.T) {
	if _, err := New(Config{CenterFrequency: testFc}); err == nil {
		t.Error("missing alphabet should fail")
	}
	s := newSetup(t, 5, 22)
	if _, err := New(Config{Packet: s.pkt, CenterFrequency: testFc}); err == nil {
		t.Error("missing delay-line pair should fail")
	}
	if _, err := New(Config{Pair: s.pair, Packet: s.pkt}); err == nil {
		t.Error("missing center frequency should fail")
	}
	if _, err := New(Config{Pair: s.pair, Packet: packet.Config{Alphabet: s.alpha, HeaderLen: 2, SyncLen: 2}, CenterFrequency: testFc}); err == nil {
		t.Error("invalid packet framing should fail")
	}
	tg, err := New(Config{Pair: s.pair, Packet: s.pkt, CenterFrequency: testFc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.UplinkStates(nil, testPeriod, 4); err == nil {
		t.Error("uplink without modulator should fail")
	}
}
