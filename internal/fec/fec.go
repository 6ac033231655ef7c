// Package fec implements the downlink forward-error-correction layer the
// link-recovery subsystem degrades into when retransmission alone cannot
// close the link. Two codes cover the impairment spectrum the fault layer
// injects:
//
//   - Hamming(7,4): corrects one flipped bit per 7-bit codeword. Cheap (75%
//     overhead) and effective against the scattered symbol errors a marginal
//     SNR produces.
//   - Repetition-N (majority vote): corrects up to ⌊N/2⌋ of the N copies of
//     every bit. Expensive (N−1 copies of overhead) but, combined with the
//     interleaver, survives the long jamming bursts a duty-cycled gate
//     produces — the copies of one bit land whole columns apart, so a burst
//     shorter than the column stride hits at most one copy.
//
// Both codes run under a depth-d block interleaver: the coded bit stream is
// written row-major into d rows and transmitted column-major, so b
// consecutive corrupted channel bits land in b different rows — codeword
// neighborhoods far apart in the coded stream.
//
// The layer is bit-exact reversible and self-delimiting against the CSSK
// symbol padding: Encode pads the coded stream with zeros to a multiple of
// PadQuantum bits, and Decode recovers the exact padded length as the
// unique multiple of PadQuantum within one symbol of the received bit
// count. SchemeNone is the identity — a packet configured without FEC is
// byte-identical to one that never imported this package.
package fec

import (
	"errors"
	"fmt"
)

// Scheme selects the code.
type Scheme int

// Schemes, ordered by increasing redundancy. The link controller's
// degradation ladder walks this order.
const (
	// SchemeNone is the identity: no coding, no interleaving, no padding.
	SchemeNone Scheme = iota
	// SchemeHamming74 is the Hamming(7,4) single-error-correcting code.
	SchemeHamming74
	// SchemeRepetition repeats every bit Config.Repeat times (default 3)
	// and decodes by majority vote.
	SchemeRepetition
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeHamming74:
		return "hamming74"
	case SchemeRepetition:
		return "repetition"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// PadQuantum is the padding granularity of the coded stream in bits. Encode
// zero-pads the coded stream to a multiple of it; Decode recovers the exact
// padded length as the only multiple of PadQuantum within maxSlack bits of
// the received stream length. 28 is a common multiple of the Hamming
// codeword (7) and the repetition unit for any Repeat dividing 28's
// factors; more importantly it exceeds the largest CSSK symbol (16 bits),
// which is what makes the length recovery unambiguous.
const PadQuantum = 28

// ErrTooShort means the received stream is too short to hold even the
// padding quantum.
var ErrTooShort = errors.New("fec: coded stream too short")

// Config parameterizes the layer. The zero value is SchemeNone — the exact
// identity transform.
type Config struct {
	// Scheme selects the code.
	Scheme Scheme
	// InterleaveDepth is the number of interleaver rows; values below 2
	// (including zero) disable interleaving. Deeper interleaving spreads
	// longer channel bursts at no rate cost.
	InterleaveDepth int
	// Repeat is the repetition factor for SchemeRepetition; zero selects 3.
	// Must be odd so the majority vote has no ties.
	Repeat int
}

// withDefaults fills derived defaults.
func (c Config) withDefaults() Config {
	if c.Scheme == SchemeRepetition && c.Repeat == 0 {
		c.Repeat = 3
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	cc := c.withDefaults()
	switch cc.Scheme {
	case SchemeNone, SchemeHamming74:
	case SchemeRepetition:
		if cc.Repeat < 3 || cc.Repeat%2 == 0 {
			return fmt.Errorf("fec: repetition factor %d must be an odd number ≥ 3", cc.Repeat)
		}
	default:
		return fmt.Errorf("fec: unknown scheme %d", int(cc.Scheme))
	}
	if cc.InterleaveDepth < 0 || cc.InterleaveDepth > 256 {
		return fmt.Errorf("fec: interleave depth %d must be in [0, 256]", cc.InterleaveDepth)
	}
	return nil
}

// Enabled reports whether the configuration applies any transform at all.
func (c Config) Enabled() bool { return c.Scheme != SchemeNone }

// Rate returns the code rate (data bits per coded bit), ignoring the
// bounded padding. 1 for SchemeNone.
func (c Config) Rate() float64 {
	cc := c.withDefaults()
	switch cc.Scheme {
	case SchemeHamming74:
		return 4.0 / 7.0
	case SchemeRepetition:
		return 1.0 / float64(cc.Repeat)
	default:
		return 1
	}
}

// CodedBits returns the on-air bit count for n data bytes, padding
// included. For SchemeNone it is exactly 8n.
func (c Config) CodedBits(n int) int {
	cc := c.withDefaults()
	var raw int
	switch cc.Scheme {
	case SchemeHamming74:
		raw = 14 * n // 2 codewords per byte
	case SchemeRepetition:
		raw = 8 * n * cc.Repeat
	default:
		return 8 * n
	}
	return (raw + PadQuantum - 1) / PadQuantum * PadQuantum
}

// Stats reports what the decoder observed and repaired.
type Stats struct {
	// CodedBits is the number of coded bits consumed.
	CodedBits int
	// CorrectedBits counts channel bits the code repaired: flipped bits
	// inside correctable Hamming codewords, and minority votes under
	// repetition. Zero on a clean stream — and always zero for SchemeNone,
	// which cannot see errors.
	CorrectedBits int
}

// EncodeBits codes a data bit stream for transmission: code, pad to the
// quantum, interleave. SchemeNone returns the input unchanged (no copy).
func (c Config) EncodeBits(data []bool) []bool {
	cc := c.withDefaults()
	if cc.Scheme == SchemeNone {
		return data
	}
	var coded []bool
	switch cc.Scheme {
	case SchemeHamming74:
		coded = hammingEncode(data)
	case SchemeRepetition:
		coded = make([]bool, 0, len(data)*cc.Repeat)
		for _, b := range data {
			for r := 0; r < cc.Repeat; r++ {
				coded = append(coded, b)
			}
		}
	}
	for len(coded)%PadQuantum != 0 {
		coded = append(coded, false)
	}
	return interleave(coded, cc.InterleaveDepth)
}

// DecodeBits inverts EncodeBits on a received stream that may carry up to
// maxSlack trailing garbage bits (the CSSK symbol padding the framing layer
// cannot strip). maxSlack must be smaller than PadQuantum for the padded
// length to be unambiguous; the packet layer guarantees this by
// construction (symbol sizes are capped at 16 bits). The returned data may
// include up to one byte-group of zero padding bits beyond the original
// data; framing layers delimit real content themselves (length prefixes).
func (c Config) DecodeBits(recv []bool, maxSlack int) ([]bool, Stats, error) {
	cc := c.withDefaults()
	if cc.Scheme == SchemeNone {
		// The identity scheme reports zero stats: it consumes no coded bits
		// and cannot see errors, and downstream diagnostics must stay
		// byte-identical to a build without FEC.
		return recv, Stats{}, nil
	}
	if maxSlack >= PadQuantum {
		return nil, Stats{}, fmt.Errorf("fec: slack %d bits must be below the %d-bit pad quantum", maxSlack, PadQuantum)
	}
	length := len(recv) / PadQuantum * PadQuantum
	if length == 0 {
		return nil, Stats{}, ErrTooShort
	}
	if len(recv)-length > maxSlack {
		return nil, Stats{}, fmt.Errorf("fec: %d trailing bits exceed the declared %d-bit slack", len(recv)-length, maxSlack)
	}
	coded := deinterleave(recv[:length], cc.InterleaveDepth)
	st := Stats{CodedBits: length}
	var data []bool
	switch cc.Scheme {
	case SchemeHamming74:
		data = hammingDecode(coded, &st)
	case SchemeRepetition:
		data = make([]bool, 0, length/cc.Repeat)
		for i := 0; i+cc.Repeat <= len(coded); i += cc.Repeat {
			ones := 0
			for r := 0; r < cc.Repeat; r++ {
				if coded[i+r] {
					ones++
				}
			}
			bit := ones > cc.Repeat/2
			if minority := min(ones, cc.Repeat-ones); minority > 0 {
				st.CorrectedBits += minority
			}
			data = append(data, bit)
		}
	}
	return data, st, nil
}

// hammingEncode codes data 4 bits at a time into 7-bit codewords, zero-
// padding the final nibble. Layout per codeword: p1 p2 d1 p3 d2 d3 d4
// (parity bits at positions 1, 2 and 4 — the classic arrangement whose
// syndrome reads out the error position directly).
func hammingEncode(data []bool) []bool {
	out := make([]bool, 0, (len(data)+3)/4*7)
	for i := 0; i < len(data); i += 4 {
		var d [4]bool
		for k := 0; k < 4 && i+k < len(data); k++ {
			d[k] = data[i+k]
		}
		p1 := d[0] != d[1] != d[3]
		p2 := d[0] != d[2] != d[3]
		p3 := d[1] != d[2] != d[3]
		out = append(out, p1, p2, d[0], p3, d[1], d[2], d[3])
	}
	return out
}

// hammingDecode inverts hammingEncode, correcting one flipped bit per
// codeword and tallying corrections into st. Trailing bits short of a full
// codeword (only possible on corrupt geometry) are dropped.
func hammingDecode(coded []bool, st *Stats) []bool {
	out := make([]bool, 0, len(coded)/7*4)
	for i := 0; i+7 <= len(coded); i += 7 {
		var w [7]bool
		copy(w[:], coded[i:i+7])
		s1 := w[0] != w[2] != w[4] != w[6]
		s2 := w[1] != w[2] != w[5] != w[6]
		s3 := w[3] != w[4] != w[5] != w[6]
		syndrome := 0
		if s1 {
			syndrome |= 1
		}
		if s2 {
			syndrome |= 2
		}
		if s3 {
			syndrome |= 4
		}
		if syndrome != 0 {
			w[syndrome-1] = !w[syndrome-1]
			st.CorrectedBits++
		}
		out = append(out, w[2], w[4], w[5], w[6])
	}
	return out
}

// interleave permutes the coded stream for transmission: the stream is
// written row-major into depth rows of ⌈n/depth⌉ columns (the last row may
// be ragged) and read out column-major. Consecutive transmitted bits are
// one full row apart in the coded stream, so a burst of b ≤ depth channel
// bits corrupts at most one bit per row. Depth < 2 is the identity.
func interleave(bits []bool, depth int) []bool {
	if depth < 2 || len(bits) <= depth {
		return bits
	}
	n := len(bits)
	cols := (n + depth - 1) / depth
	out := make([]bool, 0, n)
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			if idx := r*cols + c; idx < n {
				out = append(out, bits[idx])
			}
		}
	}
	return out
}

// deinterleave inverts interleave for a stream of the same length.
func deinterleave(bits []bool, depth int) []bool {
	if depth < 2 || len(bits) <= depth {
		return bits
	}
	n := len(bits)
	cols := (n + depth - 1) / depth
	out := make([]bool, n)
	k := 0
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			if idx := r*cols + c; idx < n {
				out[idx] = bits[k]
				k++
			}
		}
	}
	return out
}
