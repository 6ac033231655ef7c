package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"biscatter/internal/cssk"
)

// decode is DecodeStats without the FEC diagnostics.
func decode(c Config, stream []cssk.Symbol) ([]byte, error) {
	payload, _, err := c.DecodeStats(stream)
	return payload, err
}

func testAlphabet(t testing.TB, bits int) *cssk.Alphabet {
	t.Helper()
	const deltaL = 45 * 0.0254
	const k = 0.7
	a, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        1e9,
		Period:           120e-6,
		MinChirpDuration: 20e-6,
		DeltaT:           deltaL / (k * 299792458.0),
		MinBeatSpacing:   500,
		SymbolBits:       bits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testConfig(t testing.TB, bits int) Config {
	return Config{Alphabet: testAlphabet(t, bits), HeaderLen: 8, SyncLen: 2}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{HeaderLen: 8, SyncLen: 2}).Validate(); err == nil {
		t.Error("nil alphabet should fail")
	}
	if err := (Config{Alphabet: good.Alphabet, HeaderLen: 2, SyncLen: 2}).Validate(); err == nil {
		t.Error("short header should fail")
	}
	if err := (Config{Alphabet: good.Alphabet, HeaderLen: 8, SyncLen: 0}).Validate(); err == nil {
		t.Error("zero sync should fail")
	}
}

func TestEncodeStructure(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte("hi")
	syms, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) != c.PacketChirps(len(payload)) {
		t.Fatalf("packet length %d, want %d", len(syms), c.PacketChirps(len(payload)))
	}
	for i := 0; i < c.HeaderLen; i++ {
		if syms[i].Kind != cssk.KindHeader {
			t.Fatalf("chirp %d should be header, got %v", i, syms[i].Kind)
		}
	}
	for i := c.HeaderLen; i < c.HeaderLen+c.SyncLen; i++ {
		if syms[i].Kind != cssk.KindSync {
			t.Fatalf("chirp %d should be sync, got %v", i, syms[i].Kind)
		}
	}
	for i := c.HeaderLen + c.SyncLen; i < len(syms); i++ {
		if syms[i].Kind != cssk.KindData {
			t.Fatalf("chirp %d should be data, got %v", i, syms[i].Kind)
		}
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	c := testConfig(t, 5)
	if _, err := c.Encode(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 3, 5, 8} {
		c := testConfig(t, bits)
		payload := []byte("BiScatter downlink message")
		syms, err := c.Encode(payload)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got, err := decode(c, syms)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("bits=%d: got %q want %q", bits, got, payload)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	c := testConfig(t, 5)
	f := func(payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		syms, err := c.Encode(payload)
		if err != nil {
			return false
		}
		got, err := decode(c, syms)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWithLeadingGarbage(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte{0xDE, 0xAD}
	syms, _ := c.Encode(payload)
	rng := rand.New(rand.NewSource(42))
	var garbage []cssk.Symbol
	for i := 0; i < 7; i++ {
		s, err := c.Alphabet.DataSymbol(rng.Intn(c.Alphabet.DataSymbolCount()))
		if err != nil {
			t.Fatal(err)
		}
		garbage = append(garbage, s)
	}
	got, err := decode(c, append(garbage, syms...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %v want %v", got, payload)
	}
}

func TestDecodeToleratesPartialHeader(t *testing.T) {
	// Tag woke up mid-header: half the header chirps are missing.
	c := testConfig(t, 5)
	payload := []byte{1, 2, 3}
	syms, _ := c.Encode(payload)
	got, err := decode(c, syms[c.HeaderLen/2:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %v want %v", got, payload)
	}
}

func TestDecodeMissingPreamble(t *testing.T) {
	c := testConfig(t, 5)
	s, _ := c.Alphabet.DataSymbol(0)
	stream := []cssk.Symbol{s, s, s, s}
	if _, err := decode(c, stream); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("expected ErrNoPreamble, got %v", err)
	}
	if _, err := decode(c, nil); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("expected ErrNoPreamble on empty stream, got %v", err)
	}
}

func TestDecodeSyncWithoutHeaderRejected(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte{9}
	syms, _ := c.Encode(payload)
	// Strip the entire header: a bare sync must not be accepted, because a
	// random data symbol near the sync beat would otherwise cause framing
	// errors.
	if _, err := decode(c, syms[c.HeaderLen:]); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("expected ErrNoPreamble, got %v", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	c := testConfig(t, 5)
	syms, _ := c.Encode([]byte("hello world"))
	cut := syms[:len(syms)-5]
	if _, err := decode(c, cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("expected ErrTruncated, got %v", err)
	}
}

func TestDecodeCorruptedPayloadFailsCRC(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte("integrity")
	syms, _ := c.Encode(payload)
	// Flip one data symbol to a different value.
	di := c.HeaderLen + c.SyncLen + 3
	orig := syms[di]
	v, _ := c.Alphabet.ValueForSymbol(orig)
	alt, err := c.Alphabet.SymbolForValue((v + 1) % uint32(c.Alphabet.DataSymbolCount()))
	if err != nil {
		t.Fatal(err)
	}
	syms[di] = alt
	if _, err := decode(c, syms); !errors.Is(err, ErrCRC) {
		t.Fatalf("expected ErrCRC, got %v", err)
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	c := testConfig(t, 5)
	syms, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(c, syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty payload, got %v", got)
	}
}

func TestPayloadSymbolsAccounting(t *testing.T) {
	c := testConfig(t, 5)
	// 1 length + 4 payload + 1 CRC = 6 bytes = 48 bits → ceil(48/5) = 10.
	if got := c.PayloadSymbols(4); got != 10 {
		t.Fatalf("PayloadSymbols(4) = %d, want 10", got)
	}
	if got := c.PacketChirps(4); got != 8+2+10 {
		t.Fatalf("PacketChirps(4) = %d, want 20", got)
	}
}

func TestCRC8KnownValues(t *testing.T) {
	// CRC-8/ATM check value: CRC8("123456789") = 0xF4.
	if got := CRC8([]byte("123456789")); got != 0xF4 {
		t.Fatalf("CRC8 check value %#x, want 0xF4", got)
	}
	if got := CRC8(nil); got != 0 {
		t.Fatalf("CRC8(nil) = %#x, want 0", got)
	}
}

func TestCRC8DetectsSingleBitErrorsProperty(t *testing.T) {
	f := func(data []byte, byteSel, bitSel uint8) bool {
		if len(data) == 0 {
			return true
		}
		orig := CRC8(data)
		mod := append([]byte(nil), data...)
		mod[int(byteSel)%len(mod)] ^= 1 << (bitSel % 8)
		return CRC8(mod) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackPackets(t *testing.T) {
	// Two packets in one stream: decoding the tail after the first packet
	// should yield the second payload.
	c := testConfig(t, 5)
	p1, p2 := []byte("first"), []byte("second")
	s1, _ := c.Encode(p1)
	s2, _ := c.Encode(p2)
	stream := append(append([]cssk.Symbol{}, s1...), s2...)
	got1, err := decode(c, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, p1) {
		t.Fatalf("first packet: got %q", got1)
	}
	got2, err := decode(c, stream[len(s1):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, p2) {
		t.Fatalf("second packet: got %q", got2)
	}
}

func TestDurationsMatchSymbolDurations(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte{7, 8}
	syms, _ := c.Encode(payload)
	durs, err := c.Durations(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != len(syms) {
		t.Fatalf("lengths differ: %d vs %d", len(durs), len(syms))
	}
	for i := range durs {
		if durs[i] != syms[i].Duration {
			t.Fatalf("duration %d mismatch", i)
		}
	}
}
