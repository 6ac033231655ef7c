// Package cssk implements Chirp-Slope-Shift Keying, BiScatter's downlink
// modulation (§3.1): multi-bit symbols are encoded by varying the FMCW chirp
// duration (and therefore slope) while keeping bandwidth — and hence radar
// range resolution — fixed. Each symbol corresponds to a distinct beat
// frequency at the tag's delay-line decoder (Eq. 11), so the alphabet is
// constructed in beat-frequency space and mapped back to chirp durations.
package cssk

import (
	"fmt"
	"math"
	"sort"
)

// SymbolKind distinguishes the reserved preamble slopes from data slopes.
type SymbolKind int

// Symbol kinds. The paper allocates two unique chirp slopes for the header
// and sync fields of the preamble (Fig. 3).
const (
	KindData SymbolKind = iota
	KindHeader
	KindSync
)

// String implements fmt.Stringer.
func (k SymbolKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindHeader:
		return "header"
	case KindSync:
		return "sync"
	default:
		return fmt.Sprintf("SymbolKind(%d)", int(k))
	}
}

// Symbol is one CSSK constellation point.
type Symbol struct {
	// Kind says whether this is a data, header or sync slope.
	Kind SymbolKind
	// Index is the data symbol index in [0, 2^bits) for data symbols and -1
	// for header/sync.
	Index int
	// Duration is the chirp duration T_chirp in seconds.
	Duration float64
	// Beat is the expected decoder beat frequency Δf in Hz.
	Beat float64
}

// Config parameterizes an alphabet.
type Config struct {
	// Bandwidth is the fixed chirp bandwidth B (Hz).
	Bandwidth float64
	// Period is the chirp period T_period (s); it bounds the maximum chirp
	// duration and sets the symbol time (Eq. 14).
	Period float64
	// MinChirpDuration is the shortest chirp the radar can emit (s). The
	// longest is 0.8·Period, the commercial-radar duty-cycle limit (§3.1).
	MinChirpDuration float64
	// DeltaT is the tag's calibrated delay-line difference ΔT (s).
	DeltaT float64
	// MinBeatSpacing is Δf_int (Hz): the smallest spacing between adjacent
	// symbol beats the tag can resolve above its noise floor (Eq. 13).
	MinBeatSpacing float64
	// SymbolBits is the number of bits per data symbol (Eq. 12).
	SymbolBits int
}

// The paper's operating constants (§6): commercial FMCW radars bottom out
// at 10–20 µs chirps, and the tag resolves beats Δf_int = 500 Hz apart above
// its noise floor.
const (
	ChirpFloor  = 20e-6
	BeatSpacing = 500
)

// maxDutyCycle mirrors fmcw.MaxDutyCycle without importing it (keeps the
// modulation layer free of the waveform layer).
const maxDutyCycle = 0.8

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("cssk: bandwidth %v Hz must be positive", c.Bandwidth)
	case c.Period <= 0:
		return fmt.Errorf("cssk: period %v s must be positive", c.Period)
	case c.MinChirpDuration <= 0:
		return fmt.Errorf("cssk: min chirp duration %v s must be positive", c.MinChirpDuration)
	case c.MinChirpDuration >= maxDutyCycle*c.Period:
		return fmt.Errorf("cssk: min chirp duration %v s must be below max %v s",
			c.MinChirpDuration, maxDutyCycle*c.Period)
	case c.DeltaT <= 0:
		return fmt.Errorf("cssk: delay-line ΔT %v s must be positive", c.DeltaT)
	case c.MinBeatSpacing <= 0:
		return fmt.Errorf("cssk: minimum beat spacing %v Hz must be positive", c.MinBeatSpacing)
	case c.SymbolBits < 1 || c.SymbolBits > 16:
		return fmt.Errorf("cssk: symbol bits %d must be in [1, 16]", c.SymbolBits)
	}
	return nil
}

// BeatRange returns (Δf_min, Δf_max): the decoder beat frequencies for the
// longest and shortest chirps (Eq. 11 with T = max and min duration).
func (c Config) BeatRange() (lo, hi float64) {
	lo = c.Bandwidth * c.DeltaT / (maxDutyCycle * c.Period)
	hi = c.Bandwidth * c.DeltaT / c.MinChirpDuration
	return lo, hi
}

// MaxSlopes returns N_slope (Eq. 13): how many distinguishable slopes the
// beat range admits at the configured spacing.
func (c Config) MaxSlopes() int {
	lo, hi := c.BeatRange()
	if hi <= lo {
		return 0
	}
	return int((hi-lo)/c.MinBeatSpacing) + 1
}

// MaxSymbolBits returns the largest usable symbol size (Eq. 12), reserving
// the two preamble slopes.
func (c Config) MaxSymbolBits() int {
	n := c.MaxSlopes() - 2
	if n < 2 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(n))))
}

// DataRate returns the downlink data rate in bit/s (Eq. 14):
// N_symbol / T_period.
func (c Config) DataRate() float64 {
	return float64(c.SymbolBits) / c.Period
}

// WithSymbolBits returns a copy of the configuration at a different symbol
// width, every physical parameter unchanged — the one-field rewrite the
// link controller's degradation ladder performs when it trades bits for
// slope spacing.
func (c Config) WithSymbolBits(bits int) Config {
	c.SymbolBits = bits
	return c
}

// SpacingForBits returns the beat spacing (Hz) an alphabet at the given
// symbol width would place between adjacent constellation points — the
// robustness margin a degradation step buys. Fewer bits spread the same
// beat range over fewer slopes, widening the spacing. Returns 0 when the
// width doesn't fit the configuration.
func (c Config) SpacingForBits(bits int) float64 {
	if bits < 1 || bits > 16 {
		return 0
	}
	m := (1 << bits) + 2 // data symbols plus the header and sync slopes
	lo, hi := c.BeatRange()
	if hi <= lo {
		return 0
	}
	return (hi - lo) / float64(m-1)
}

// Alphabet is a constructed CSSK constellation: 2^SymbolBits data symbols
// plus the header and sync symbols, all at distinct beat frequencies.
type Alphabet struct {
	cfg    Config
	header Symbol
	sync   Symbol
	data   []Symbol  // indexed by data symbol index
	beats  []float64 // all beats ascending, for classification
	byBeat []Symbol  // symbols in the same order as beats
}

// NewAlphabet constructs the constellation. Beats are placed uniformly
// between Δf_min and Δf_max; the lowest beat (longest, flattest chirp) is the
// header, the highest is the sync, and the 2^bits interior points carry data.
// Construction fails if the resulting spacing would fall below
// MinBeatSpacing — the Eq. 13 capacity limit.
func NewAlphabet(cfg Config) (*Alphabet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := (1 << cfg.SymbolBits) + 2
	lo, hi := cfg.BeatRange()
	spacing := (hi - lo) / float64(m-1)
	if spacing < cfg.MinBeatSpacing {
		return nil, fmt.Errorf(
			"cssk: %d bits/symbol needs %d slopes but spacing %.1f Hz < Δf_int %.1f Hz (max %d bits)",
			cfg.SymbolBits, m, spacing, cfg.MinBeatSpacing, cfg.MaxSymbolBits())
	}
	a := &Alphabet{cfg: cfg}
	mkSymbol := func(beat float64, kind SymbolKind, idx int) Symbol {
		return Symbol{
			Kind:     kind,
			Index:    idx,
			Duration: cfg.Bandwidth * cfg.DeltaT / beat,
			Beat:     beat,
		}
	}
	for i := 0; i < m; i++ {
		beat := lo + float64(i)*spacing
		var s Symbol
		switch i {
		case 0:
			s = mkSymbol(beat, KindHeader, -1)
			a.header = s
		case m - 1:
			s = mkSymbol(beat, KindSync, -1)
			a.sync = s
		default:
			s = mkSymbol(beat, KindData, i-1)
			a.data = append(a.data, s)
		}
		a.beats = append(a.beats, beat)
		a.byBeat = append(a.byBeat, s)
	}
	return a, nil
}

// Config returns the alphabet's configuration.
func (a *Alphabet) Config() Config { return a.cfg }

// SymbolBits returns the bits per data symbol.
func (a *Alphabet) SymbolBits() int { return a.cfg.SymbolBits }

// DataSymbolCount returns 2^SymbolBits.
func (a *Alphabet) DataSymbolCount() int { return len(a.data) }

// Header returns the header-field symbol.
func (a *Alphabet) Header() Symbol { return a.header }

// Sync returns the sync-field symbol.
func (a *Alphabet) Sync() Symbol { return a.sync }

// DataSymbol returns the data symbol with the given index.
func (a *Alphabet) DataSymbol(idx int) (Symbol, error) {
	if idx < 0 || idx >= len(a.data) {
		return Symbol{}, fmt.Errorf("cssk: data symbol index %d out of range [0, %d)", idx, len(a.data))
	}
	return a.data[idx], nil
}

// Beats returns every constellation beat frequency in ascending order
// (header, data..., sync). The tag decoder uses these as its Goertzel bank.
func (a *Alphabet) Beats() []float64 {
	return append([]float64(nil), a.beats...)
}

// MinSpacing returns the spacing between adjacent beats.
func (a *Alphabet) MinSpacing() float64 {
	if len(a.beats) < 2 {
		return 0
	}
	return a.beats[1] - a.beats[0]
}

// SymbolForValue maps a SymbolBits-wide value to its data symbol using Gray
// coding: constellation position i carries value GrayEncode(i), so adjacent
// beats carry values differing in exactly one bit and a decision error to a
// neighboring beat corrupts only one bit.
func (a *Alphabet) SymbolForValue(v uint32) (Symbol, error) {
	if int(v) >= len(a.data) {
		return Symbol{}, fmt.Errorf("cssk: value %d does not fit in %d bits", v, a.cfg.SymbolBits)
	}
	return a.data[GrayDecode(v)], nil
}

// ValueForSymbol inverts SymbolForValue for a data symbol.
func (a *Alphabet) ValueForSymbol(s Symbol) (uint32, error) {
	if s.Kind != KindData {
		return 0, fmt.Errorf("cssk: %v symbol carries no data", s.Kind)
	}
	if s.Index < 0 || s.Index >= len(a.data) {
		return 0, fmt.Errorf("cssk: data symbol index %d out of range", s.Index)
	}
	return GrayEncode(uint32(s.Index)), nil
}

// ClassifyBeat returns the constellation symbol nearest to a measured beat
// frequency — the tag's per-chirp decision rule.
func (a *Alphabet) ClassifyBeat(beat float64) Symbol {
	i := sort.SearchFloat64s(a.beats, beat)
	switch {
	case i == 0:
		return a.byBeat[0]
	case i == len(a.beats):
		return a.byBeat[len(a.byBeat)-1]
	default:
		if beat-a.beats[i-1] <= a.beats[i]-beat {
			return a.byBeat[i-1]
		}
		return a.byBeat[i]
	}
}

// Durations returns the chirp durations for a sequence of data symbol
// values, for handing to the frame builder.
func (a *Alphabet) Durations(values []uint32) ([]float64, error) {
	out := make([]float64, len(values))
	for i, v := range values {
		s, err := a.SymbolForValue(v)
		if err != nil {
			return nil, fmt.Errorf("cssk: value %d: %w", i, err)
		}
		out[i] = s.Duration
	}
	return out, nil
}

// GrayEncode converts a binary value to its Gray code.
func GrayEncode(v uint32) uint32 { return v ^ (v >> 1) }

// GrayDecode converts a Gray code back to binary.
func GrayDecode(g uint32) uint32 {
	v := g
	for shift := uint(1); shift < 32; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

// PackBits packs a bit slice (MSB first within each symbol) into
// SymbolBits-wide values, zero-padding the tail.
func PackBits(bits []bool, symbolBits int) []uint32 {
	if symbolBits <= 0 {
		panic("cssk: PackBits requires symbolBits > 0")
	}
	n := (len(bits) + symbolBits - 1) / symbolBits
	out := make([]uint32, n)
	for i, b := range bits {
		if b {
			sym := i / symbolBits
			pos := symbolBits - 1 - i%symbolBits
			out[sym] |= 1 << pos
		}
	}
	return out
}

// UnpackBits expands SymbolBits-wide values back into a bit slice of length
// n (it truncates the zero padding added by PackBits).
func UnpackBits(values []uint32, symbolBits, n int) []bool {
	if symbolBits <= 0 {
		panic("cssk: UnpackBits requires symbolBits > 0")
	}
	out := make([]bool, 0, n)
	for _, v := range values {
		for pos := symbolBits - 1; pos >= 0 && len(out) < n; pos-- {
			out = append(out, v&(1<<pos) != 0)
		}
	}
	for len(out) < n {
		out = append(out, false)
	}
	return out
}

// BytesToBits converts bytes to bits, MSB first.
func BytesToBits(data []byte) []bool {
	out := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, b&(1<<uint(i)) != 0)
		}
	}
	return out
}

// BitsToBytes converts bits (MSB first) back to bytes, zero-padding the last
// byte.
func BitsToBytes(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}
