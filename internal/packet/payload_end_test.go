package packet

import (
	"fmt"
	"testing"

	"biscatter/internal/cssk"
)

// stoppedPrefix cuts the stream where a decoder that follows PayloadEnd
// stops classifying: after the symbol Last reports, or nowhere.
func stoppedPrefix(c Config, stream []cssk.Symbol) []cssk.Symbol {
	e := c.NewPayloadEnd()
	for i, s := range stream {
		if e.Last(s.Kind) {
			return stream[:i+1]
		}
	}
	return stream
}

// prefixDecodesLikeStream reports how DecodeStats on the stopped prefix
// differs from DecodeStats on the whole stream — payload, FEC stats or
// error — or "" when it does not.
func prefixDecodesLikeStream(c Config, stream []cssk.Symbol) string {
	prefix := stoppedPrefix(c, stream)
	pp, ps, perr := c.DecodeStats(prefix)
	fp, fs, ferr := c.DecodeStats(stream)
	switch {
	case string(pp) != string(fp) || (pp == nil) != (fp == nil):
		return fmt.Sprintf("payload %x from %d of %d symbols, %x from all", pp, len(prefix), len(stream), fp)
	case ps != fs:
		return fmt.Sprintf("stats %+v from %d of %d symbols, %+v from all", ps, len(prefix), len(stream), fs)
	case fmt.Sprint(perr) != fmt.Sprint(ferr):
		return fmt.Sprintf("error %v from %d of %d symbols, %v from all", perr, len(prefix), len(stream), ferr)
	}
	return ""
}

// TestPayloadEndPrefixDecodesLikeStream checks that DecodeStats reads
// nothing past the symbol PayloadEnd marks: the stopped prefix decodes to
// the same payload, FEC stats and error as the whole stream, with and
// without FEC, on the stream shapes a tag meets. padded says whether the
// stop must fall before the stream's end.
func TestPayloadEndPrefixDecodesLikeStream(t *testing.T) {
	schemes := fecConfigs()
	schemes["none"] = testConfig(t, 5).FEC
	for name, fc := range schemes {
		c := testConfig(t, 5)
		c.FEC = fc
		a := c.Alphabet
		pkt, err := c.Encode([]byte("payload end"))
		if err != nil {
			t.Fatal(err)
		}
		data := func(i int) cssk.Symbol {
			s, err := a.DataSymbol(i % a.DataSymbolCount())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		run := func(s cssk.Symbol, n int) []cssk.Symbol {
			out := make([]cssk.Symbol, n)
			for i := range out {
				out[i] = s
			}
			return out
		}
		cat := func(parts ...[]cssk.Symbol) []cssk.Symbol {
			var out []cssk.Symbol
			for _, p := range parts {
				out = append(out, p...)
			}
			return out
		}
		padding := run(a.Header(), 40)
		payload := pkt[c.HeaderLen+c.SyncLen:]
		withData := func(at int, s cssk.Symbol) []cssk.Symbol {
			out := cat(pkt, padding)
			out[c.HeaderLen+c.SyncLen+at] = s
			return out
		}
		cases := []struct {
			name   string
			stream []cssk.Symbol
			padded bool
		}{
			{"clean padded frame", cat(pkt, padding), true},
			{"no preamble", cat(run(data(3), 30), padding), false},
			{"empty stream", nil, false},
			{"header run too short", cat(run(a.Header(), c.HeaderLen/2-1), run(a.Sync(), c.SyncLen), payload, run(data(5), 4)), false},
			{"header run too short then a packet", cat(run(a.Header(), 3), run(a.Sync(), 1), payload, pkt, padding), true},
			{"header after sync restarts", cat(run(a.Header(), c.HeaderLen), run(a.Sync(), 1), pkt, padding), true},
			{"wake in mid-packet", cat(pkt[c.HeaderLen/2:], padding), true},
			{"wake in the sync", cat(pkt[c.HeaderLen+1:], padding), false},
			{"wake in the payload", cat(pkt[c.HeaderLen+c.SyncLen+2:], padding), false},
			{"leading garbage", cat(run(data(7), 9), pkt, padding), true},
			{"data read as header in the payload", withData(3, a.Header()), true},
			{"data read as sync in the payload", withData(5, a.Sync()), true},
			{"data read as header at the payload start", withData(0, a.Header()), false},
			{"no symbol after the payload", pkt, false},
			{"payload cut short", pkt[:len(pkt)-3], false},
			{"back-to-back packets", cat(pkt, pkt, padding), true},
		}
		for _, tc := range cases {
			if diff := prefixDecodesLikeStream(c, tc.stream); diff != "" {
				t.Errorf("%s, %s: %s", name, tc.name, diff)
			}
			if got := len(stoppedPrefix(c, tc.stream)); tc.padded != (got < len(tc.stream)) {
				t.Errorf("%s, %s: stopped after %d of %d symbols", name, tc.name, got, len(tc.stream))
			}
		}
		// A clean padded frame stops on the first pad chirp.
		if got, want := len(stoppedPrefix(c, cat(pkt, padding))), len(pkt)+1; got != want {
			t.Errorf("%s: clean frame stopped after %d symbols, want %d", name, got, want)
		}
	}
}
