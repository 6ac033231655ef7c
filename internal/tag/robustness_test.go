package tag

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeSurvivesRandomWakeOffsetsProperty: the tag may wake anywhere
// within the first third of the preamble and still decode — the margin the
// header field buys (§3.1).
func TestDecodeSurvivesRandomWakeOffsetsProperty(t *testing.T) {
	s := newSetup(t, 5, 60)
	payload := []byte("offset robustness")
	frame := s.frameFor(t, payload)
	f := func(raw uint16) bool {
		offset := float64(raw%300) / 100 * testPeriod // 0 … 3 periods
		x := s.fe.Capture(frame, 40, offset, 0)
		got, err := decodePacket(s.dec, x, s.pkt)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeWithBurstInterference injects a strong interference burst into
// the capture (another radar sweeping past): the CRC must protect against
// wrong deliveries even when decoding fails.
func TestDecodeWithBurstInterference(t *testing.T) {
	s := newSetup(t, 5, 61)
	payload := []byte("burst")
	frame := s.frameFor(t, payload)
	rng := rand.New(rand.NewSource(62))
	wrong := 0
	for trial := 0; trial < 30; trial++ {
		x := s.fe.CaptureFrame(frame, 35)
		// 300 µs of strong wideband interference at a random position.
		burst := 300
		start := rng.Intn(len(x) - burst)
		for i := start; i < start+burst; i++ {
			x[i] += 3 * rng.NormFloat64()
		}
		got, err := decodePacket(s.dec, x, s.pkt)
		if err == nil && !bytes.Equal(got, payload) {
			wrong++
		}
	}
	if wrong > 1 {
		t.Fatalf("%d/30 interfered frames delivered wrong payloads", wrong)
	}
}

// TestDecodeWithTrailingGarbage appends unrelated signal after the packet
// (the next frame's header): the payload must still decode.
func TestDecodeWithTrailingGarbage(t *testing.T) {
	s := newSetup(t, 5, 63)
	payload := []byte("tail")
	frame := s.frameFor(t, payload)
	x := s.fe.Capture(frame, 40, 0, 6*testPeriod) // long noise tail
	got, err := decodePacket(s.dec, x, s.pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

// TestDecoderDeterminism: identical captures decode identically — the
// pipeline holds no hidden state.
func TestDecoderDeterminism(t *testing.T) {
	s := newSetup(t, 5, 64)
	payload := []byte{9, 8, 7}
	frame := s.frameFor(t, payload)
	x := s.fe.CaptureFrame(frame, 18)
	a, diagA, errA := s.dec.DecodeFrame(x)
	b, diagB, errB := s.dec.DecodeFrame(x)
	if (errA == nil) != (errB == nil) || diagA != diagB || len(a) != len(b) {
		t.Fatal("decoder is not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("symbol %d differs between identical decodes", i)
		}
	}
}

// TestSlopeJitterDegradesDecoding: the Fig. 17 clock-quality knob must
// actually hurt.
func TestSlopeJitterDegradesDecoding(t *testing.T) {
	clean := newSetup(t, 6, 65)
	jittery := newSetup(t, 6, 65)
	jittery.fe.SlopeJitter = 0.02 // 2% slope jitter: a bad synthesizer
	payload := []byte("jitter")
	frame := clean.frameFor(t, payload)
	const snr = 14
	cleanErrs, jitterErrs := 0, 0
	for trial := 0; trial < 12; trial++ {
		if got, err := decodePacket(clean.dec, clean.fe.CaptureFrame(frame, snr), clean.pkt); err != nil || !bytes.Equal(got, payload) {
			cleanErrs++
		}
		if got, err := decodePacket(jittery.dec, jittery.fe.CaptureFrame(frame, snr), jittery.pkt); err != nil || !bytes.Equal(got, payload) {
			jitterErrs++
		}
	}
	if jitterErrs <= cleanErrs {
		t.Fatalf("slope jitter should cost packets: clean %d vs jittery %d failures", cleanErrs, jitterErrs)
	}
}
