package fmcw

import (
	"fmt"
)

// MaxDutyCycle is the largest fraction of the chirp period a chirp may
// occupy. Commercial radars need a minimum inter-chirp delay to reset the
// synthesizer and run the down-chirp (§3.1 cites TI's application note), so
// BiScatter assumes T_chirp ≤ 0.8·T_period.
const MaxDutyCycle = 0.8

// Chirp is one scheduled chirp inside a frame: its waveform parameters plus
// the inter-chirp delay that pads it to the fixed chirp period.
type Chirp struct {
	Params ChirpParams
	// InterChirpDelay is the idle time after the sweep, in seconds, so that
	// Params.Duration + InterChirpDelay == the frame's chirp period.
	InterChirpDelay float64
	// Index is the chirp's position within its frame.
	Index int
}

// Frame is a sequence of chirps with a common period and bandwidth but
// (potentially) varying slopes — the unit of BiScatter's ISAC protocol.
type Frame struct {
	Chirps []Chirp
	// Period is the fixed chirp period T_period in seconds shared by every
	// chirp in the frame; it defines the downlink symbol time.
	Period float64
}

// Duration returns the total frame duration in seconds.
func (f *Frame) Duration() float64 {
	return float64(len(f.Chirps)) * f.Period
}

// FrameBuilder assembles frames with a fixed chirp period from a base chirp
// configuration, enforcing the commercial-radar duty-cycle constraint.
type FrameBuilder struct {
	base   ChirpParams // duration field ignored; per-chirp durations supplied
	period float64
}

// NewFrameBuilder creates a builder for frames with chirp period T_period
// seconds. The base parameters supply f0, bandwidth and sample rate.
func NewFrameBuilder(base ChirpParams, period float64) (*FrameBuilder, error) {
	probe := base
	if probe.Duration == 0 {
		probe.Duration = period * MaxDutyCycle
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("fmcw: chirp period %v s must be positive", period)
	}
	return &FrameBuilder{base: base, period: period}, nil
}

// MaxChirpDuration returns the longest chirp duration the period admits.
func (b *FrameBuilder) MaxChirpDuration() float64 { return b.period * MaxDutyCycle }

// Build creates a frame from the per-chirp durations (seconds). Every
// duration must be positive and at most MaxChirpDuration.
func (b *FrameBuilder) Build(durations []float64) (*Frame, error) {
	if len(durations) == 0 {
		return nil, fmt.Errorf("fmcw: frame needs at least one chirp")
	}
	f := &Frame{Period: b.period, Chirps: make([]Chirp, len(durations))}
	maxT := b.MaxChirpDuration()
	for i, d := range durations {
		if d <= 0 {
			return nil, fmt.Errorf("fmcw: chirp %d duration %v s must be positive", i, d)
		}
		if d > maxT+1e-15 {
			return nil, fmt.Errorf("fmcw: chirp %d duration %v s exceeds %.0f%% of period %v s",
				i, d, MaxDutyCycle*100, b.period)
		}
		p := b.base
		p.Duration = d
		f.Chirps[i] = Chirp{
			Params:          p,
			InterChirpDelay: b.period - d,
			Index:           i,
		}
	}
	return f, nil
}

// BuildUniform creates a frame of n identical chirps of the given duration —
// the sensing-only mode with a fixed slope.
func (b *FrameBuilder) BuildUniform(n int, duration float64) (*Frame, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fmcw: frame needs at least one chirp, got %d", n)
	}
	durs := make([]float64, n)
	for i := range durs {
		durs[i] = duration
	}
	return b.Build(durs)
}

// DurationQuantum is the granularity at which commercial chirp generators can
// program chirp durations (seconds). We use 0.1 µs, consistent with the
// timer resolution of TI/ADI synthesizers.
const DurationQuantum = 100e-9
