// Package packet implements BiScatter's downlink packet structure (Fig. 3):
// a preamble made of a header field (a run of one reserved chirp slope, used
// by the tag to estimate the chirp period) and a sync field (a second
// reserved slope marking the start of data), followed by a payload of CSSK
// data symbols. The payload carries a length prefix and a CRC-8 so the tag
// can verify downlink messages and request retransmissions — the capability
// two-way communication unlocks.
package packet

import (
	"errors"
	"fmt"

	"biscatter/internal/cssk"
	"biscatter/internal/fec"
)

// Limits for the on-air payload.
const (
	// MaxPayload is the largest payload in bytes (length prefix is one byte).
	MaxPayload = 255
)

// Errors returned by the decoder.
var (
	// ErrNoPreamble means no header+sync pattern was found in the stream.
	ErrNoPreamble = errors.New("packet: preamble not found")
	// ErrTruncated means the stream ended before the full payload.
	ErrTruncated = errors.New("packet: truncated payload")
	// ErrCRC means the payload checksum failed.
	ErrCRC = errors.New("packet: CRC mismatch")
)

// Config describes the framing parameters shared by radar and tag.
type Config struct {
	// Alphabet is the CSSK constellation in use.
	Alphabet *cssk.Alphabet
	// HeaderLen is the number of header-symbol chirps. The tag needs several
	// periods of the same slope to estimate T_period (§3.2.2), so values
	// below 4 are rejected.
	HeaderLen int
	// SyncLen is the number of sync-symbol chirps marking the payload start.
	SyncLen int
	// FEC selects the forward-error-correction layer applied to the framed
	// payload bits (length ‖ data ‖ CRC-8) before symbol packing. The zero
	// value (fec.SchemeNone) is the exact identity: the on-air symbol stream
	// is byte-identical to a build that never heard of FEC.
	FEC fec.Config
}

// Validate checks the framing configuration.
func (c Config) Validate() error {
	switch {
	case c.Alphabet == nil:
		return fmt.Errorf("packet: alphabet is required")
	case c.HeaderLen < 4:
		return fmt.Errorf("packet: header length %d must be at least 4 chirps", c.HeaderLen)
	case c.SyncLen < 1:
		return fmt.Errorf("packet: sync length %d must be at least 1 chirp", c.SyncLen)
	}
	return c.FEC.Validate()
}

// PayloadSymbols returns how many data symbols an n-byte payload occupies
// (length prefix + payload + CRC-8, after FEC expansion).
func (c Config) PayloadSymbols(n int) int {
	bits := c.FEC.CodedBits(1 + n + 1)
	return (bits + c.Alphabet.SymbolBits() - 1) / c.Alphabet.SymbolBits()
}

// PacketChirps returns the total number of chirps for an n-byte payload.
func (c Config) PacketChirps(n int) int {
	return c.HeaderLen + c.SyncLen + c.PayloadSymbols(n)
}

// Encode builds the full chirp schedule for one downlink packet: header
// symbols, sync symbols, then the payload (length ‖ data ‖ CRC-8) packed
// into Gray-coded data symbols.
func (c Config) Encode(payload []byte) ([]cssk.Symbol, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("packet: payload %d bytes exceeds %d", len(payload), MaxPayload)
	}
	buf := make([]byte, 0, len(payload)+2)
	buf = append(buf, byte(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, CRC8(buf))

	bits := c.FEC.EncodeBits(cssk.BytesToBits(buf))
	values := cssk.PackBits(bits, c.Alphabet.SymbolBits())

	out := make([]cssk.Symbol, 0, c.HeaderLen+c.SyncLen+len(values))
	for i := 0; i < c.HeaderLen; i++ {
		out = append(out, c.Alphabet.Header())
	}
	for i := 0; i < c.SyncLen; i++ {
		out = append(out, c.Alphabet.Sync())
	}
	for i, v := range values {
		s, err := c.Alphabet.SymbolForValue(v)
		if err != nil {
			return nil, fmt.Errorf("packet: symbol %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Durations returns the per-chirp durations of an encoded packet, ready for
// the frame builder.
func (c Config) Durations(payload []byte) ([]float64, error) {
	syms, err := c.Encode(payload)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(syms))
	for i, s := range syms {
		out[i] = s.Duration
	}
	return out, nil
}

// DecodeStats parses a received symbol stream (as classified by the tag
// decoder) back into the payload. The stream may contain leading garbage
// before the preamble; DecodeStats searches for a run of at least
// HeaderLen/2 header symbols followed by at least one sync symbol —
// tolerating a partially missed header, which happens when the tag wakes
// mid-packet. It also returns the FEC layer's diagnostics: how many coded
// bits were consumed and how many channel errors the code repaired. The
// stats are meaningful even when decoding ultimately fails (e.g. the CRC
// still mismatches after correction) — the link controller uses them as a
// channel-quality signal.
func (c Config) DecodeStats(stream []cssk.Symbol) ([]byte, fec.Stats, error) {
	var st fec.Stats
	if err := c.Validate(); err != nil {
		return nil, st, err
	}
	start, ok := c.findPayloadStart(stream)
	if !ok {
		return nil, st, ErrNoPreamble
	}
	values := make([]uint32, 0, len(stream)-start)
	for _, s := range stream[start:] {
		if s.Kind != cssk.KindData {
			break // trailing control symbols end the payload region
		}
		v, err := c.Alphabet.ValueForSymbol(s)
		if err != nil {
			return nil, st, err
		}
		values = append(values, v)
	}
	symbolBits := c.Alphabet.SymbolBits()
	totalBits := len(values) * symbolBits
	recv := cssk.UnpackBits(values, symbolBits, totalBits)
	// Symbol packing adds < symbolBits trailing pad bits, and a noisy tail
	// may misclassify a few more chirps as data; anything short of the FEC
	// pad quantum is provably not payload, so let the FEC layer drop it and
	// leave the CRC as the final arbiter.
	bits, st, err := c.FEC.DecodeBits(recv, fec.PadQuantum-1)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(bits) < 16 { // need at least length + CRC bytes
		return nil, st, ErrTruncated
	}
	raw := cssk.BitsToBytes(bits)
	n := int(raw[0])
	if len(raw) < 1+n+1 {
		return nil, st, ErrTruncated
	}
	body := raw[:1+n]
	if CRC8(body) != raw[1+n] {
		return nil, st, ErrCRC
	}
	return append([]byte(nil), body[1:]...), st, nil
}

// FindPayloadStart locates the index of the first data symbol after the
// preamble, tolerating a partially missed header. It is the sync-search
// primitive DecodeStats uses, exported for consumers that need symbol-level
// alignment (e.g. BER counting against a known transmitted stream).
func (c Config) FindPayloadStart(stream []cssk.Symbol) (int, bool) {
	return c.findPayloadStart(stream)
}

// findPayloadStart locates the first data symbol after the preamble.
func (c Config) findPayloadStart(stream []cssk.Symbol) (int, bool) {
	p := c.preamble()
	for i, s := range stream {
		if p.next(s.Kind) {
			return i, true
		}
	}
	return 0, false
}

// preambleScan is DecodeStats' preamble search, fed one symbol at a time: a
// run of at least minHeader header symbols, then a sync symbol, then the
// first data symbol. A header after sync restarts the search (new packet).
// Its decision at a symbol depends only on the symbols before it, so a
// stream's prefix finds the same payload start as the whole stream.
type preambleScan struct {
	minHeader int
	headerRun int
	syncSeen  bool
}

// preamble returns a preamble search at its start: a header run of at least
// HeaderLen/2 chirps, and no fewer than 2, tolerating a partially missed
// header.
func (c Config) preamble() preambleScan {
	return preambleScan{minHeader: max(c.HeaderLen/2, 2)}
}

// next takes the next symbol's kind and reports whether it is the first
// data symbol after the preamble.
func (p *preambleScan) next(k cssk.SymbolKind) bool {
	switch k {
	case cssk.KindHeader:
		if p.syncSeen {
			p.syncSeen = false
			p.headerRun = 1
			return false
		}
		p.headerRun++
	case cssk.KindSync:
		if p.headerRun >= p.minHeader {
			p.syncSeen = true
		} else {
			p.headerRun = 0
		}
	case cssk.KindData:
		if p.syncSeen {
			return true
		}
		p.headerRun = 0
	default:
		p.headerRun = 0
		p.syncSeen = false
	}
	return false
}

// PayloadEnd follows a symbol stream as it is classified and reports the
// symbol after which DecodeStats reads nothing more: the first non-data
// symbol after the payload starts. DecodeStats on the stream up to and
// including that symbol returns what it returns on the whole stream, so a
// decoder can stop classifying there.
type PayloadEnd struct {
	pre       preambleScan
	inPayload bool
}

// NewPayloadEnd returns a PayloadEnd at the start of a stream.
func (c Config) NewPayloadEnd() PayloadEnd {
	return PayloadEnd{pre: c.preamble()}
}

// Last takes the next symbol's kind and reports whether DecodeStats reads
// nothing after that symbol.
func (e *PayloadEnd) Last(k cssk.SymbolKind) bool {
	if e.inPayload {
		return k != cssk.KindData
	}
	e.inPayload = e.pre.next(k)
	return false
}

// CRC8 computes the CRC-8/ATM checksum (polynomial x⁸+x²+x+1, 0x07) over
// data.
func CRC8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
