package packet

import (
	"bytes"
	"reflect"
	"testing"

	"biscatter/internal/fec"
)

func fecConfigs() map[string]fec.Config {
	return map[string]fec.Config{
		"hamming":     {Scheme: fec.SchemeHamming74, InterleaveDepth: 8},
		"repetition3": {Scheme: fec.SchemeRepetition, InterleaveDepth: 16},
	}
}

func TestFECRoundTrip(t *testing.T) {
	for name, fc := range fecConfigs() {
		t.Run(name, func(t *testing.T) {
			c := testConfig(t, 5)
			c.FEC = fc
			for _, payload := range [][]byte{nil, {0x42}, []byte("the quick brown fox"), bytes.Repeat([]byte{0xA5}, 64)} {
				syms, err := c.Encode(payload)
				if err != nil {
					t.Fatal(err)
				}
				if len(syms) != c.PacketChirps(len(payload)) {
					t.Fatalf("packet length %d, want %d", len(syms), c.PacketChirps(len(payload)))
				}
				got, st, err := c.DecodeStats(syms)
				if err != nil {
					t.Fatalf("payload %d bytes: %v", len(payload), err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("payload %d bytes corrupted in round trip", len(payload))
				}
				if st.CodedBits == 0 || st.CorrectedBits != 0 {
					t.Fatalf("clean channel stats %+v", st)
				}
			}
		})
	}
}

func TestFECCorrectsSymbolErrors(t *testing.T) {
	c := testConfig(t, 5)
	c.FEC = fec.Config{Scheme: fec.SchemeHamming74, InterleaveDepth: 14}
	payload := []byte("resilient downlink payload")
	syms, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Swap one data symbol for its Gray-coded neighbor: a single bit error
	// in the unpacked stream, which the interleaved Hamming code absorbs.
	dataStart := c.HeaderLen + c.SyncLen
	v, err := c.Alphabet.ValueForSymbol(syms[dataStart+3])
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := c.Alphabet.SymbolForValue(v ^ 1)
	if err != nil {
		t.Fatal(err)
	}
	syms[dataStart+3] = swapped
	got, st, err := c.DecodeStats(syms)
	if err != nil {
		t.Fatalf("decode after single symbol error: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted despite FEC")
	}
	if st.CorrectedBits == 0 {
		t.Fatal("decoder did not report the repaired bit")
	}

	// The same corruption without FEC must fail the CRC.
	plain := testConfig(t, 5)
	syms2, err := plain.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := plain.Alphabet.ValueForSymbol(syms2[dataStart+3])
	if err != nil {
		t.Fatal(err)
	}
	swapped2, err := plain.Alphabet.SymbolForValue(v2 ^ 1)
	if err != nil {
		t.Fatal(err)
	}
	syms2[dataStart+3] = swapped2
	if _, err := decode(plain, syms2); err == nil {
		t.Fatal("uncoded packet should have failed CRC (test premise broken)")
	}
}

func TestFECNoneMatchesLegacyEncoding(t *testing.T) {
	// The zero-value FEC config must leave the on-air symbol schedule
	// byte-identical to the pre-FEC framing.
	c := testConfig(t, 5)
	withKnob := c
	withKnob.FEC = fec.Config{Scheme: fec.SchemeNone}
	payload := []byte("identity")
	a, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withKnob.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SchemeNone changed the symbol schedule")
	}
	got, st, err := withKnob.DecodeStats(a)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("SchemeNone decode: %v", err)
	}
	if st != (fec.Stats{}) {
		t.Fatalf("SchemeNone must report zero stats, got %+v", st)
	}
}

func TestFECValidatePropagates(t *testing.T) {
	c := testConfig(t, 5)
	c.FEC = fec.Config{Scheme: fec.SchemeRepetition, Repeat: 4}
	if err := c.Validate(); err == nil {
		t.Fatal("even repetition factor must be rejected at the packet layer")
	}
	if _, err := c.Encode([]byte{1}); err == nil {
		t.Fatal("Encode must reject an invalid FEC config")
	}
}

func TestFECAllSymbolWidths(t *testing.T) {
	// Length recovery must hold for every legal symbol width: the pad
	// quantum exceeds the largest symbol, so the padded length is always
	// the unique multiple within one symbol of the received bit count.
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	for bits := 1; bits <= 6; bits++ {
		c := Config{Alphabet: testAlphabet(t, bits), HeaderLen: 8, SyncLen: 2,
			FEC: fec.Config{Scheme: fec.SchemeHamming74, InterleaveDepth: 8}}
		syms, err := c.Encode(payload)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got, err := decode(c, syms)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("bits=%d: round trip failed: %v", bits, err)
		}
	}
}
