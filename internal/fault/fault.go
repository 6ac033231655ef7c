// Package fault is the deterministic impairment layer of the BiScatter
// simulation: a set of independently configured, per-seed reproducible
// injectors that compose onto the signal path — and leave it byte-identical
// when disabled. The paper's evaluation lives on behavior under real-world
// impairments (BER vs SNR in Figs. 14/17, multipath-rich offices, moving
// people, multi-tag interference); this package turns those conditions into
// configuration the scenario harness and the robustness conformance suite
// can sweep and pin.
//
// Each impairment models one physical failure mode:
//
//   - Interference: a duty-cycled in-band jammer, gated in slow time. On the
//     tag side it lands as a tone at the envelope detector (scaled by the
//     link's jammer-to-signal ratio); on the radar side as an IF tone with
//     per-chirp random phase that leaks across the Doppler spectrum.
//   - OscillatorDrift: offset + linear drift + per-chirp jitter on the tag's
//     Eq. 9 beat output, modeling a cheap tag reference oscillator.
//   - Dropout: per-chirp TX dropouts — the chirp is missing (or clipped to a
//     leading fraction) for the tag and the radar alike.
//   - Saturation: ADC clipping and quantization at the tag front-end.
//   - Desync: capture-start jitter against T_period — a tag waking late
//     relative to the symbol boundary.
//   - Moving clutter: extra channel.Reflector entries (typically with
//     non-zero Velocity) appended to the radar scene, feeding the Doppler
//     path with time-varying multipath.
//
// All injector randomness comes from a stateless hash RNG keyed by
// (seed, stream, index), so decisions are worker-order independent and the
// pipeline's own noise realizations are never perturbed. Injected faults are
// observable through the fault.injected.* telemetry counters, registered
// per stage only when the corresponding impairment is enabled.
package fault

import (
	"fmt"

	"biscatter/internal/channel"
	"biscatter/internal/splitmix"
)

// Interference is a burst in-band jammer gated in slow time: for DutyCycle
// of every PeriodChirps-chirp cycle the jammer is on, and every chirp in the
// on-window is hit on both sides of the link. Raising DutyCycle with a fixed
// seed strictly grows the set of jammed chirps, which is what makes the
// monotone-BER conformance check well-posed.
type Interference struct {
	// TagPowerDBm is the interferer's power at the tag's envelope detector
	// input. Zero disables the tag-side tone (0 dBm is far above any
	// plausible detector input).
	TagPowerDBm float64
	// RadarPowerDBm is the jam tone power at the radar IF input. Zero
	// disables the radar-side tone.
	RadarPowerDBm float64
	// DutyCycle is the jammed fraction of slow time, in [0, 1].
	DutyCycle float64
	// PeriodChirps is the on/off gating cycle length in chirps; default 16.
	PeriodChirps int
	// TagToneFraction places the tag-side jam tone at this fraction of the
	// tag ADC rate; default 0.05 (50 kHz at 1 MHz — mid constellation band).
	TagToneFraction float64
	// RadarToneFraction places the radar-side jam tone at this fraction of
	// the radar IF sample rate; default 0.31.
	RadarToneFraction float64
}

func (i *Interference) withDefaults() Interference {
	c := *i
	if c.PeriodChirps <= 0 {
		c.PeriodChirps = 16
	}
	if c.TagToneFraction == 0 {
		c.TagToneFraction = 0.05
	}
	if c.RadarToneFraction == 0 {
		c.RadarToneFraction = 0.31
	}
	return c
}

func (i *Interference) validate() error {
	if i.DutyCycle < 0 || i.DutyCycle > 1 {
		return fmt.Errorf("fault: interference duty cycle %v must be in [0, 1]", i.DutyCycle)
	}
	if i.PeriodChirps < 0 {
		return fmt.Errorf("fault: interference period %d chirps must be non-negative", i.PeriodChirps)
	}
	c := i.withDefaults()
	if c.TagToneFraction < 0 || c.TagToneFraction >= 0.5 {
		return fmt.Errorf("fault: tag tone fraction %v must be in [0, 0.5)", c.TagToneFraction)
	}
	if c.RadarToneFraction < 0 || c.RadarToneFraction >= 0.5 {
		return fmt.Errorf("fault: radar tone fraction %v must be in [0, 0.5)", c.RadarToneFraction)
	}
	return nil
}

// OscillatorDrift perturbs the tag's measured beat frequency: the Eq. 9
// output Δf = α·ΔT is scaled by (1 + Offset + DriftPerSecond·t + Jitter·N),
// modeling reference-oscillator inaccuracy, warm-up drift and phase noise.
type OscillatorDrift struct {
	// Offset is a constant fractional beat offset (0.01 = 1 % fast).
	Offset float64
	// DriftPerSecond is a linear fractional drift over the frame.
	DriftPerSecond float64
	// Jitter is the per-chirp fractional jitter sigma.
	Jitter float64
}

func (d *OscillatorDrift) validate() error {
	if d.Jitter < 0 {
		return fmt.Errorf("fault: drift jitter %v must be non-negative", d.Jitter)
	}
	return nil
}

// Dropout drops (or clips) individual chirps at the transmitter: a dropped
// chirp reaches neither the tag nor the radar, only receiver noise remains.
type Dropout struct {
	// Rate is the per-chirp drop probability, in [0, 1].
	Rate float64
	// ClipFraction, when non-zero, truncates dropped chirps to this leading
	// fraction instead of removing them entirely.
	ClipFraction float64
}

func (d *Dropout) validate() error {
	if d.Rate < 0 || d.Rate > 1 {
		return fmt.Errorf("fault: dropout rate %v must be in [0, 1]", d.Rate)
	}
	if d.ClipFraction < 0 || d.ClipFraction >= 1 {
		return fmt.Errorf("fault: clip fraction %v must be in [0, 1)", d.ClipFraction)
	}
	return nil
}

// Saturation models the tag ADC front-end limits: samples are clipped at
// ClipLevel times the nominal detector amplitude and quantized to Bits.
type Saturation struct {
	// ClipLevel is the ADC full scale relative to the nominal detector
	// amplitude; zero disables clipping.
	ClipLevel float64
	// Bits is the quantizer resolution; zero disables quantization.
	Bits int
}

func (s *Saturation) validate() error {
	if s.ClipLevel < 0 {
		return fmt.Errorf("fault: clip level %v must be non-negative", s.ClipLevel)
	}
	if s.Bits < 0 || s.Bits > 24 {
		return fmt.Errorf("fault: quantizer bits %d must be in [0, 24]", s.Bits)
	}
	return nil
}

// Desync jitters the tag's capture start against the chirp period: the tag
// wakes up to MaxOffset chirp periods late, so its symbol windows slide
// against the radar's T_period grid.
type Desync struct {
	// MaxOffset is the maximum start offset as a fraction of one chirp
	// period, drawn uniformly per capture.
	MaxOffset float64
}

func (d *Desync) validate() error {
	if d.MaxOffset < 0 {
		return fmt.Errorf("fault: desync max offset %v must be non-negative", d.MaxOffset)
	}
	return nil
}

// TagFaults groups the impairments local to one tag's front-end.
type TagFaults struct {
	// Drift perturbs the beat output; nil disables.
	Drift *OscillatorDrift
	// Saturation clips/quantizes the ADC samples; nil disables.
	Saturation *Saturation
	// Desync jitters the capture start; nil disables.
	Desync *Desync
}

func (t *TagFaults) validate() error {
	if t == nil {
		return nil
	}
	if t.Drift != nil {
		if err := t.Drift.validate(); err != nil {
			return err
		}
	}
	if t.Saturation != nil {
		if err := t.Saturation.validate(); err != nil {
			return err
		}
	}
	if t.Desync != nil {
		if err := t.Desync.validate(); err != nil {
			return err
		}
	}
	return nil
}

// enabled reports whether any tag-side fault is configured.
func (t *TagFaults) enabled() bool {
	return t != nil && (t.Drift != nil || t.Saturation != nil || t.Desync != nil)
}

// Profile is one named fault scenario: the full set of impairments applied
// to a network. The zero value (and nil) is the clean profile — every
// injector is off and the signal path is byte-identical to a network built
// without a profile at all.
type Profile struct {
	// Name labels the profile in scenario tables.
	Name string
	// Seed roots every injector's hash RNG. Zero derives the seed from the
	// network seed, so distinct networks get distinct fault realizations by
	// default while a fixed profile seed replays exactly.
	Seed int64
	// Interference is the shared duty-cycled jammer; nil disables.
	Interference *Interference
	// Dropout drops chirps at the transmitter; nil disables.
	Dropout *Dropout
	// Clutter is appended to the network's static scene — reflectors with
	// non-zero Velocity model moving people/objects feeding the Doppler
	// path.
	Clutter []channel.Reflector
	// Tag applies to every node's front-end; nil disables.
	Tag *TagFaults
	// Nodes overrides Tag per node index (a nil entry disables tag faults
	// for that node).
	Nodes map[int]*TagFaults
}

// Validate checks every configured impairment.
func (p *Profile) Validate() error {
	if p == nil {
		return nil
	}
	if p.Interference != nil {
		if err := p.Interference.validate(); err != nil {
			return err
		}
	}
	if p.Dropout != nil {
		if err := p.Dropout.validate(); err != nil {
			return err
		}
	}
	if err := p.Tag.validate(); err != nil {
		return err
	}
	for i, tf := range p.Nodes {
		if err := tf.validate(); err != nil {
			return fmt.Errorf("fault: node %d: %w", i, err)
		}
	}
	for i, r := range p.Clutter {
		if r.Range <= 0 {
			return fmt.Errorf("fault: clutter reflector %d range %v m must be positive", i, r.Range)
		}
	}
	return nil
}

// TagFor returns the tag faults for node i: the per-node override when one
// exists (even an explicit nil), else the shared Tag set.
func (p *Profile) TagFor(i int) *TagFaults {
	if p == nil {
		return nil
	}
	if tf, ok := p.Nodes[i]; ok {
		return tf
	}
	return p.Tag
}

// SeedFor resolves the profile's injector seed against the network seed.
func (p *Profile) SeedFor(networkSeed int64) int64 {
	if p == nil {
		return networkSeed
	}
	if p.Seed != 0 {
		return p.Seed
	}
	// Decorrelate from the network seed without ever colliding with it: the
	// pipeline's sequential RNGs use networkSeed and small offsets of it.
	return int64(splitmix.Mix(uint64(networkSeed) ^ 0xfa017b15))
}

// Enabled reports whether the profile configures any impairment at all.
func (p *Profile) Enabled() bool {
	return p != nil && (p.Interference != nil || p.Dropout != nil ||
		len(p.Clutter) > 0 || p.Tag.enabled() || anyNodeFaults(p.Nodes))
}

func anyNodeFaults(m map[int]*TagFaults) bool {
	for _, tf := range m {
		if tf.enabled() {
			return true
		}
	}
	return false
}

// gate is the precomputed slow-time on/off pattern of the interference
// injector: chirp i is jammed iff (i + phase) mod period < on.
type gate struct {
	period int
	on     int
	phase  int
}

// newGate builds the gating pattern. The ceil keeps any non-zero duty
// jamming at least one chirp per cycle, and a larger duty always jams a
// superset of a smaller one at the same seed.
func newGate(c Interference, seed int64) gate {
	g := gate{period: c.PeriodChirps}
	on := c.DutyCycle * float64(g.period)
	g.on = int(on)
	if float64(g.on) < on {
		g.on++ // ceil
	}
	if g.on > g.period {
		g.on = g.period
	}
	g.phase = int(splitmix.Bits(seed, streamGatePhase, 0) % uint64(g.period))
	return g
}

// jammed reports whether chirp idx falls in the on-window.
func (g gate) jammed(idx int) bool {
	if g.on <= 0 || idx < 0 {
		return false
	}
	return (idx+g.phase)%g.period < g.on
}
