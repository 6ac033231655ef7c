package fec

import (
	"reflect"
	"testing"
)

// testBits builds a deterministic pseudo-random bit pattern.
func testBits(seed uint64, n int) []bool {
	out := make([]bool, n)
	s := seed*2654435761 + 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = s&1 == 1
	}
	return out
}

func configs() map[string]Config {
	return map[string]Config{
		"hamming":             {Scheme: SchemeHamming74},
		"hamming-interleaved": {Scheme: SchemeHamming74, InterleaveDepth: 8},
		"repetition3":         {Scheme: SchemeRepetition},
		"repetition5-deep":    {Scheme: SchemeRepetition, Repeat: 5, InterleaveDepth: 16},
	}
}

func TestSchemeNoneIsIdentity(t *testing.T) {
	var c Config
	data := testBits(1, 83)
	coded := c.EncodeBits(data)
	if !reflect.DeepEqual(coded, data) {
		t.Fatal("SchemeNone must not transform the stream")
	}
	got, st, err := c.DecodeBits(coded, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) || st.CorrectedBits != 0 {
		t.Fatal("SchemeNone decode must be the identity with zero corrections")
	}
	if c.Enabled() {
		t.Fatal("zero config must report disabled")
	}
	if c.Rate() != 1 || c.CodedBits(5) != 40 {
		t.Fatal("SchemeNone rate/length must be trivial")
	}
}

func TestRoundTripCleanChannel(t *testing.T) {
	for name, c := range configs() {
		t.Run(name, func(t *testing.T) {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{8, 16, 80, 328} { // whole bytes of data bits
				data := testBits(uint64(n), n)
				coded := c.EncodeBits(data)
				if len(coded)%PadQuantum != 0 {
					t.Fatalf("coded length %d not a multiple of the pad quantum", len(coded))
				}
				if want := c.CodedBits(n / 8); len(coded) != want {
					t.Fatalf("coded length %d, CodedBits says %d", len(coded), want)
				}
				got, st, err := c.DecodeBits(coded, 4)
				if err != nil {
					t.Fatal(err)
				}
				if st.CorrectedBits != 0 {
					t.Fatalf("clean channel produced %d corrections", st.CorrectedBits)
				}
				if len(got) < len(data) || !reflect.DeepEqual(got[:len(data)], data) {
					t.Fatalf("n=%d: round trip corrupted the data", n)
				}
				// Decode padding must be zero bits.
				for _, b := range got[len(data):] {
					if b {
						t.Fatal("padding decoded to non-zero bits")
					}
				}
			}
		})
	}
}

func TestRoundTripWithSymbolSlack(t *testing.T) {
	// The framing layer hands the decoder up to symbolBits-1 trailing
	// garbage bits; the length recovery must shrug them off.
	for name, c := range configs() {
		t.Run(name, func(t *testing.T) {
			data := testBits(9, 96)
			coded := c.EncodeBits(data)
			for slack := 0; slack < 16; slack++ {
				recv := append(append([]bool(nil), coded...), testBits(uint64(slack), slack)...)
				got, _, err := c.DecodeBits(recv, 16)
				if err != nil {
					t.Fatalf("slack %d: %v", slack, err)
				}
				if !reflect.DeepEqual(got[:len(data)], data) {
					t.Fatalf("slack %d corrupted the data", slack)
				}
			}
		})
	}
}

func TestHammingCorrectsSingleErrors(t *testing.T) {
	c := Config{Scheme: SchemeHamming74}
	data := testBits(3, 64)
	coded := c.EncodeBits(data)
	// Flip exactly one bit in every codeword.
	for i := 0; i < len(coded); i += 7 {
		coded[i+int(uint(i/7)%7)] = !coded[i+int(uint(i/7)%7)]
	}
	got, st, err := c.DecodeBits(coded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[:len(data)], data) {
		t.Fatal("single errors per codeword must decode cleanly")
	}
	if want := len(coded) / 7; st.CorrectedBits != want {
		t.Fatalf("corrected %d bits, want %d", st.CorrectedBits, want)
	}
}

func TestRepetitionOutvotesMinority(t *testing.T) {
	c := Config{Scheme: SchemeRepetition, Repeat: 5}
	data := testBits(4, 40)
	coded := c.EncodeBits(data)
	// Corrupt two of every five copies (below the majority).
	for i := 0; i+5 <= len(coded); i += 5 {
		coded[i] = !coded[i]
		coded[i+2] = !coded[i+2]
	}
	got, st, err := c.DecodeBits(coded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[:len(data)], data) {
		t.Fatal("minority corruption must be outvoted")
	}
	if st.CorrectedBits < len(data)*2 {
		t.Fatalf("corrected %d, want at least %d", st.CorrectedBits, len(data)*2)
	}
}

func TestInterleavingSpreadsBursts(t *testing.T) {
	// A contiguous channel burst as long as the interleave depth must not
	// defeat Hamming(7,4): deinterleaving leaves at most one corrupted bit
	// per codeword neighborhood.
	c := Config{Scheme: SchemeHamming74, InterleaveDepth: 24}
	data := testBits(5, 256)
	coded := c.EncodeBits(data)
	burstStart := len(coded) / 3
	for i := burstStart; i < burstStart+24 && i < len(coded); i++ {
		coded[i] = !coded[i]
	}
	got, _, err := c.DecodeBits(coded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[:len(data)], data) {
		t.Fatal("depth-24 interleaving must absorb a 24-bit burst")
	}
	// The same burst without interleaving wipes out three consecutive
	// codewords beyond repair.
	plain := Config{Scheme: SchemeHamming74}
	coded2 := plain.EncodeBits(data)
	for i := burstStart; i < burstStart+24 && i < len(coded2); i++ {
		coded2[i] = !coded2[i]
	}
	got2, _, err := plain.DecodeBits(coded2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got2[:len(data)], data) {
		t.Fatal("un-interleaved burst should have been uncorrectable (test premise broken)")
	}
}

func TestInterleaveInverts(t *testing.T) {
	for _, depth := range []int{2, 3, 7, 13, 28} {
		for _, n := range []int{1, 2, 27, 28, 29, 84, 200} {
			bits := testBits(uint64(depth*1000+n), n)
			got := deinterleave(interleave(append([]bool(nil), bits...), depth), depth)
			if !reflect.DeepEqual(got, bits) {
				t.Fatalf("depth %d, n %d: deinterleave(interleave) != id", depth, n)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c := Config{Scheme: SchemeHamming74}
	if _, _, err := c.DecodeBits(testBits(1, 12), 4); err == nil {
		t.Error("sub-quantum stream must fail")
	}
	if _, _, err := c.DecodeBits(testBits(1, 56), PadQuantum); err == nil {
		t.Error("slack at or above the pad quantum must be rejected")
	}
	if _, _, err := c.DecodeBits(testBits(1, 56+10), 4); err == nil {
		t.Error("trailing bits beyond the declared slack must be rejected")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Scheme: SchemeRepetition, Repeat: 2},
		{Scheme: SchemeRepetition, Repeat: 1},
		{Scheme: Scheme(42)},
		{Scheme: SchemeHamming74, InterleaveDepth: -1},
		{Scheme: SchemeHamming74, InterleaveDepth: 1000},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	good := Config{Scheme: SchemeRepetition} // Repeat defaults to 3
	if err := good.Validate(); err != nil {
		t.Errorf("default repetition config invalid: %v", err)
	}
	if got := good.Rate(); got != 1.0/3.0 {
		t.Errorf("default repetition rate %v", got)
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeNone:       "none",
		SchemeHamming74:  "hamming74",
		SchemeRepetition: "repetition",
		Scheme(9):        "Scheme(9)",
	} {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
