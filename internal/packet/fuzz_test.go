package packet

import (
	"bytes"
	"testing"

	"biscatter/internal/cssk"
	"biscatter/internal/fec"
)

// fuzzAlphabet is the paper's headline 5-bit constellation, shared by every
// fuzz iteration (the alphabet is immutable).
func fuzzAlphabet(tb testing.TB) *cssk.Alphabet {
	tb.Helper()
	a, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        1e9,
		Period:           120e-6,
		MinChirpDuration: 20e-6,
		DeltaT:           1.9e-9,
		MinBeatSpacing:   500,
		SymbolBits:       5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// symbolsFromBytes maps fuzz bytes onto a symbol stream, two bytes per
// symbol: the first selects the kind (including out-of-range kinds a buggy
// classifier could never emit), the second a signed index that may fall
// outside the constellation. Valid data indices borrow the real symbol so
// streams that happen to frame correctly exercise the full decode path.
func symbolsFromBytes(a *cssk.Alphabet, data []byte) []cssk.Symbol {
	stream := make([]cssk.Symbol, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		kind := cssk.SymbolKind(data[i] % 5)
		idx := int(int8(data[i+1]))
		var s cssk.Symbol
		switch kind {
		case cssk.KindHeader:
			s = a.Header()
		case cssk.KindSync:
			s = a.Sync()
		case cssk.KindData:
			if ds, err := a.DataSymbol(idx); err == nil {
				s = ds
			} else {
				s = cssk.Symbol{Kind: cssk.KindData, Index: idx}
			}
		default:
			s = cssk.Symbol{Kind: kind, Index: idx}
		}
		stream = append(stream, s)
	}
	return stream
}

// symbolsToBytes inverts symbolsFromBytes for seeding the corpus with
// well-formed packets.
func symbolsToBytes(syms []cssk.Symbol) []byte {
	out := make([]byte, 0, 2*len(syms))
	for _, s := range syms {
		out = append(out, byte(s.Kind), byte(int8(s.Index)))
	}
	return out
}

// FuzzPacketDecode throws arbitrary symbol streams at the downlink packet
// decoder: it must never panic, and any payload it accepts must re-encode
// and decode back to itself (the CRC-verified round trip).
func FuzzPacketDecode(f *testing.F) {
	a := fuzzAlphabet(f)
	cfg := Config{Alphabet: a, HeaderLen: 8, SyncLen: 2}

	for _, payload := range [][]byte{nil, {0x42}, []byte("biscatter"), bytes.Repeat([]byte{0xA5}, 32)} {
		syms, err := cfg.Encode(payload)
		if err != nil {
			f.Fatal(err)
		}
		raw := symbolsToBytes(syms)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])    // truncated packet
		f.Add(raw[cfg.HeaderLen:]) // partially missed header
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0xFF, 2, 0xFF, 3, 7, 4, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := symbolsFromBytes(a, data)
		payload, err := decode(cfg, stream)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes exceeds MaxPayload", len(payload))
		}
		syms, err := cfg.Encode(payload)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		back, err := decode(cfg, syms)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("round trip mismatch: %x != %x", back, payload)
		}
	})
}

// FuzzPayloadEnd throws arbitrary symbol streams at PayloadEnd: DecodeStats
// on the prefix a decoder following it classifies must return the payload,
// FEC stats and error it returns on the whole stream. The first byte picks
// the FEC layer.
func FuzzPayloadEnd(f *testing.F) {
	a := fuzzAlphabet(f)
	fecs := []fec.Config{{}, {Scheme: fec.SchemeHamming74, InterleaveDepth: 8}, {Scheme: fec.SchemeRepetition, InterleaveDepth: 16}}
	for i, fc := range fecs {
		cfg := Config{Alphabet: a, HeaderLen: 8, SyncLen: 2, FEC: fc}
		for _, payload := range [][]byte{nil, {0x42}, []byte("biscatter")} {
			syms, err := cfg.Encode(payload)
			if err != nil {
				f.Fatal(err)
			}
			raw := symbolsToBytes(syms)
			pad := symbolsToBytes([]cssk.Symbol{a.Header(), a.Header(), a.Header()})
			f.Add(append([]byte{byte(i)}, raw...))
			f.Add(append(append([]byte{byte(i)}, raw...), pad...))                 // padded frame
			f.Add(append(append([]byte{byte(i)}, raw[cfg.HeaderLen:]...), pad...)) // partially missed header
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 0, 3, 1, 0, 0, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Alphabet: a, HeaderLen: 8, SyncLen: 2, FEC: fecs[int(data[0])%len(fecs)]}
		if diff := prefixDecodesLikeStream(cfg, symbolsFromBytes(a, data[1:])); diff != "" {
			t.Fatal(diff)
		}
	})
}
