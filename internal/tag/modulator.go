package tag

import (
	"fmt"
	"math"

	"biscatter/internal/dsp"
)

// UplinkScheme selects how uplink bits modulate the RF switch.
type UplinkScheme int

// Supported uplink schemes (§3.3: the tag structure is compatible with
// OOK/ASK/FSK on top of the RF switch).
const (
	// SchemeOOK keys the presence of the modulation tone: a 1-bit toggles
	// the switch at the tag's modulation frequency, a 0-bit leaves the tag
	// reflective (static).
	SchemeOOK UplinkScheme = iota
	// SchemeFSK toggles the switch at F0 for 0-bits and F1 for 1-bits.
	SchemeFSK
)

// String implements fmt.Stringer.
func (s UplinkScheme) String() string {
	switch s {
	case SchemeOOK:
		return "ook"
	case SchemeFSK:
		return "fsk"
	default:
		return fmt.Sprintf("UplinkScheme(%d)", int(s))
	}
}

// Modulator drives the RF switch on the Van Atta transmission line. The
// switch state is constant within a chirp and toggles across chirps, so
// modulation frequencies live in the slow-time domain and must stay below
// half the chirp rate.
type Modulator struct {
	// Scheme is the bit-to-waveform mapping.
	Scheme UplinkScheme
	// F0 is the modulation frequency (Hz) for 0-bits (FSK) or the tone
	// frequency (OOK).
	F0 float64
	// F1 is the modulation frequency for 1-bits (FSK only).
	F1 float64
	// ChirpsPerBit is the number of chirp periods each uplink bit spans.
	ChirpsPerBit int
}

// NewModulator builds a modulator and validates frequencies against the
// chirp rate 1/period.
func NewModulator(scheme UplinkScheme, f0, f1, period float64, chirpsPerBit int) (*Modulator, error) {
	chirpRate := 1 / period
	if period <= 0 {
		return nil, fmt.Errorf("tag: chirp period %v s must be positive", period)
	}
	if chirpsPerBit < 2 {
		return nil, fmt.Errorf("tag: chirps per bit %d must be at least 2", chirpsPerBit)
	}
	if f0 <= 0 || f0 >= chirpRate/2 {
		return nil, fmt.Errorf("tag: modulation frequency F0=%v Hz outside (0, chirpRate/2=%v)", f0, chirpRate/2)
	}
	if scheme == SchemeFSK {
		if f1 <= 0 || f1 >= chirpRate/2 {
			return nil, fmt.Errorf("tag: modulation frequency F1=%v Hz outside (0, chirpRate/2=%v)", f1, chirpRate/2)
		}
		if f0 == f1 {
			return nil, fmt.Errorf("tag: FSK needs two distinct frequencies")
		}
		// Each bit window must hold at least one full cycle of either tone
		// for the radar's slow-time Goertzel to separate them.
		window := float64(chirpsPerBit) * period
		if window*math.Min(f0, f1) < 1 {
			return nil, fmt.Errorf("tag: bit window %v s too short for F=%v Hz", window, math.Min(f0, f1))
		}
	}
	return &Modulator{Scheme: scheme, F0: f0, F1: f1, ChirpsPerBit: chirpsPerBit}, nil
}

// StatesInto returns the per-chirp switch states (true = reflective) for
// the given uplink bits over n chirps with the given chirp period. Chirps
// beyond the last bit keep modulating at F0, preserving the tag's
// localization signature. It writes into dst, which is grown as needed and
// returned; every element is assigned, so dst may hold stale contents.
func (m *Modulator) StatesInto(dst []bool, bits []bool, period float64, n int) []bool {
	out := dsp.Resize(dst, n)
	for k := 0; k < n; k++ {
		t := float64(k) * period
		bitIdx := k / m.ChirpsPerBit
		var freq float64
		switch {
		case m.Scheme == SchemeOOK:
			if bitIdx < len(bits) && !bits[bitIdx] {
				out[k] = true // 0-bit: statically reflective, no tone
				continue
			}
			freq = m.F0
		case bitIdx < len(bits) && bits[bitIdx]:
			freq = m.F1
		default:
			freq = m.F0
		}
		// Square wave at freq: reflective during the positive half cycle.
		out[k] = math.Mod(t*freq, 1) < 0.5
	}
	return out
}
