package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"biscatter/internal/cssk"
)

// TestDecodeNeverPanicsOnRandomStreams is the packet layer's fuzz surface:
// arbitrary symbol streams (what a tag decoder emits under heavy noise) must
// either decode to some payload or fail with a protocol error — never panic
// and never return a payload that fails its own CRC.
func TestDecodeNeverPanicsOnRandomStreams(t *testing.T) {
	c := testConfig(t, 5)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]cssk.Symbol, int(n))
		for i := range stream {
			switch rng.Intn(4) {
			case 0:
				stream[i] = c.Alphabet.Header()
			case 1:
				stream[i] = c.Alphabet.Sync()
			default:
				s, err := c.Alphabet.DataSymbol(rng.Intn(c.Alphabet.DataSymbolCount()))
				if err != nil {
					return false
				}
				stream[i] = s
			}
		}
		payload, err := decode(c, stream)
		if err != nil {
			return true
		}
		// A successful decode means the CRC matched; re-encoding the payload
		// must produce a packet that decodes back to the same bytes.
		re, err := c.Encode(payload)
		if err != nil {
			return false
		}
		back, err := decode(c, re)
		return err == nil && bytes.Equal(back, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeWithSymbolErasures injects per-symbol erasures (slots replaced
// by a random wrong symbol, as happens when a chirp is hit by interference):
// the decoder must flag the corruption via the CRC rather than deliver a
// wrong payload.
func TestDecodeWithSymbolErasures(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte("erasure test payload")
	clean, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	wrongDeliveries := 0
	for trial := 0; trial < 200; trial++ {
		stream := append([]cssk.Symbol(nil), clean...)
		// Corrupt 1–3 random data slots.
		nErr := 1 + rng.Intn(3)
		for e := 0; e < nErr; e++ {
			i := c.HeaderLen + c.SyncLen + rng.Intn(len(stream)-c.HeaderLen-c.SyncLen)
			s, err := c.Alphabet.DataSymbol(rng.Intn(c.Alphabet.DataSymbolCount()))
			if err != nil {
				t.Fatal(err)
			}
			stream[i] = s
		}
		got, err := decode(c, stream)
		if err == nil && !bytes.Equal(got, payload) {
			wrongDeliveries++
		}
	}
	// CRC-8 misses ~1/256 of random corruptions; allow a small residue but
	// catch gross failures of the check.
	if wrongDeliveries > 5 {
		t.Fatalf("%d/200 corrupted packets delivered wrong payloads", wrongDeliveries)
	}
}

// TestDecodeWithLostChirps drops random chirps from the stream (deep fades):
// framing must not deliver a wrong payload.
func TestDecodeWithLostChirps(t *testing.T) {
	c := testConfig(t, 5)
	payload := []byte{0x11, 0x22, 0x33}
	clean, _ := c.Encode(payload)
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 100; trial++ {
		stream := append([]cssk.Symbol(nil), clean...)
		drop := rng.Intn(len(stream))
		stream = append(stream[:drop], stream[drop+1:]...)
		got, err := decode(c, stream)
		if err == nil && !bytes.Equal(got, payload) {
			// Dropping a preamble symbol is harmless; dropping a data
			// symbol shifts the payload and must be caught by the CRC.
			t.Fatalf("trial %d: dropped chirp %d delivered wrong payload %x", trial, drop, got)
		}
	}
}
