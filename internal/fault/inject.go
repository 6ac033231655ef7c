package fault

import (
	"math"

	"biscatter/internal/splitmix"
	"biscatter/internal/telemetry"
)

// Telemetry counter names for injected faults. Each counter is registered
// only when its impairment is enabled, so a network with an empty profile
// produces a metrics snapshot identical to one with no profile at all.
const (
	CounterTagJammed    = "fault.injected.tag.jammed_chirps"
	CounterTagDropped   = "fault.injected.tag.dropped_chirps"
	CounterTagDrift     = "fault.injected.tag.drift_chirps"
	CounterTagSaturated = "fault.injected.tag.saturated_samples"
	CounterTagDesync    = "fault.injected.tag.desync_frames"
	CounterRadarJammed  = "fault.injected.radar.jammed_chirps"
	CounterRadarDropped = "fault.injected.radar.dropped_chirps"
	CounterRadarClipped = "fault.injected.radar.clipped_chirps"
)

// nodeSeedStride decorrelates per-node injector streams. Shared decisions
// (TX dropout, the interference gate) stay on the profile seed itself so the
// tag and the radar agree on which chirps were lost or jammed.
const nodeSeedStride = 1000003

// TagInjector applies a profile's impairments to one tag's front-end. All
// methods are nil-receiver-safe no-ops, so the front-end threads calls
// unconditionally and pays nothing when faults are off.
type TagInjector struct {
	baseSeed int64 // shared across nodes: dropout decisions, gate alignment
	nodeSeed int64 // per node: jam phase, drift jitter, desync draws

	g       gate
	jamAmp  float64 // jam tone amplitude as a multiple of the nominal detector amplitude
	jamFrac float64 // jam tone frequency as a fraction of the ADC rate

	drop   *Dropout
	drift  *OscillatorDrift
	sat    *Saturation
	desync *Desync

	captures uint64 // desync draw index; each injector belongs to one tag

	cJam, cDrop, cDrift, cSat, cDesync *telemetry.Counter
}

// NewTagInjector builds the injector for node nodeIndex. jsrDB is the
// jammer-to-signal ratio at this tag's detector input (see
// channel.Link.DownlinkJSRdB); it is only consulted when the profile's
// tag-side interference is enabled. Returns nil — the fully inert injector —
// when no impairment applies to this tag, and resolves each telemetry
// counter only for the impairments actually enabled.
func NewTagInjector(p *Profile, nodeIndex int, networkSeed int64, jsrDB float64, m *telemetry.Metrics) *TagInjector {
	if !p.Enabled() {
		return nil
	}
	seed := p.SeedFor(networkSeed)
	inj := &TagInjector{
		baseSeed: seed,
		nodeSeed: seed + int64(nodeIndex+1)*nodeSeedStride,
	}
	any := false
	if c := p.Interference; c != nil && c.TagPowerDBm != 0 && c.DutyCycle > 0 {
		cc := c.withDefaults()
		inj.g = newGate(cc, seed)
		inj.jamAmp = math.Pow(10, jsrDB/20)
		inj.jamFrac = cc.TagToneFraction
		inj.cJam = m.Counter(CounterTagJammed)
		any = true
	}
	if d := p.Dropout; d != nil && d.Rate > 0 {
		inj.drop = d
		inj.cDrop = m.Counter(CounterTagDropped)
		any = true
	}
	if tf := p.TagFor(nodeIndex); tf != nil {
		if d := tf.Drift; d != nil && (d.Offset != 0 || d.DriftPerSecond != 0 || d.Jitter > 0) {
			inj.drift = d
			inj.cDrift = m.Counter(CounterTagDrift)
			any = true
		}
		if s := tf.Saturation; s != nil && (s.ClipLevel > 0 || s.Bits > 0) {
			inj.sat = s
			inj.cSat = m.Counter(CounterTagSaturated)
			any = true
		}
		if d := tf.Desync; d != nil && d.MaxOffset > 0 {
			inj.desync = d
			inj.cDesync = m.Counter(CounterTagDesync)
			any = true
		}
	}
	if !any {
		return nil
	}
	return inj
}

// StartJitter returns the desync offset (seconds) to add to this capture's
// start, drawn per capture as a uniform fraction of the chirp period.
func (t *TagInjector) StartJitter(period float64) float64 {
	if t == nil || t.desync == nil {
		return 0
	}
	idx := t.captures
	t.captures++
	t.cDesync.Add(1)
	return splitmix.Uniform(t.nodeSeed, streamDesync, idx) * t.desync.MaxOffset * period
}

// DropState reports whether chirp idx was dropped at the transmitter and, if
// so, the leading fraction that still made it out (zero = fully missing).
// The decision is keyed on the shared profile seed so the radar sees the
// same chirps vanish.
func (t *TagInjector) DropState(idx int) (dropped bool, clipFraction float64) {
	if t == nil || t.drop == nil {
		return false, 0
	}
	if splitmix.Uniform(t.baseSeed, streamDropout, uint64(idx)) >= t.drop.Rate {
		return false, 0
	}
	t.cDrop.Add(1)
	return true, t.drop.ClipFraction
}

// BeatScale returns the oscillator-drift multiplier for the beat of chirp
// idx starting at tChirp seconds into the capture.
func (t *TagInjector) BeatScale(idx int, tChirp float64) float64 {
	if t == nil || t.drift == nil {
		return 1
	}
	d := t.drift
	s := 1 + d.Offset + d.DriftPerSecond*tChirp
	if d.Jitter > 0 {
		s += d.Jitter * norm(t.nodeSeed, streamDrift, uint64(idx))
	}
	// A beat can drift, not invert: keep the tone physical.
	if s < 0.1 {
		s = 0.1
	}
	t.cDrift.Add(1)
	return s
}

// Jam adds the interference tone over chirp idx's full period window when
// the slow-time gate is on. The jammer is independent of the radar's
// waveform, so the tone spans the whole period (not just the chirp) with a
// fresh phase per chirp. amp is the front-end's nominal detector amplitude.
func (t *TagInjector) Jam(out []float64, idx int, chirpStart, period, fs, amp float64) {
	if t == nil || t.jamAmp == 0 || !t.g.jammed(idx) {
		return
	}
	i0 := int(math.Ceil(math.Max(chirpStart, 0) * fs))
	i1 := int((chirpStart + period) * fs)
	if i1 > len(out) {
		i1 = len(out)
	}
	if i0 >= i1 {
		return
	}
	a := t.jamAmp * amp
	f := t.jamFrac * fs
	ph := 2 * math.Pi * splitmix.Uniform(t.nodeSeed, streamJamPhase, uint64(idx))
	for i := i0; i < i1; i++ {
		ts := float64(i)/fs - chirpStart
		out[i] += a * math.Cos(2*math.Pi*f*ts+ph)
	}
	t.cJam.Add(1)
}

// PostADC applies saturation after noise addition — clipping at the ADC
// full scale and mid-tread quantization — in place. amp is the nominal
// detector amplitude the full scale is referenced to.
func (t *TagInjector) PostADC(out []float64, amp float64) {
	if t == nil || t.sat == nil {
		return
	}
	s := t.sat
	full := 2 * amp // quantize-only default: generous headroom above nominal
	if s.ClipLevel > 0 {
		full = s.ClipLevel * amp
	}
	step := 0.0
	if s.Bits > 0 {
		step = 2 * full / float64(int64(1)<<uint(s.Bits))
	}
	clipped := 0
	for i, v := range out {
		if s.ClipLevel > 0 {
			if v > full {
				v, clipped = full, clipped+1
			} else if v < -full {
				v, clipped = -full, clipped+1
			}
		}
		if step > 0 {
			v = math.Round((v+full)/step)*step - full
		}
		out[i] = v
	}
	if clipped > 0 {
		t.cSat.Add(int64(clipped))
	}
}

// RadarInjector applies a profile's impairments to the radar's IF capture.
// Methods are nil-receiver-safe and may be called concurrently from the
// radar's per-chirp worker fan-out: decisions are pure functions of
// (seed, stream, chirp index) and the counters are atomic.
type RadarInjector struct {
	seed    int64
	g       gate
	jamAmp  float64 // absolute IF tone amplitude (√mW)
	jamFrac float64 // tone frequency as a fraction of the IF sample rate

	drop *Dropout

	cJam, cDrop, cClip *telemetry.Counter
}

// NewRadarInjector builds the radar-side injector for a profile, or nil when
// nothing applies to the radar path.
func NewRadarInjector(p *Profile, networkSeed int64, m *telemetry.Metrics) *RadarInjector {
	if !p.Enabled() {
		return nil
	}
	seed := p.SeedFor(networkSeed)
	inj := &RadarInjector{seed: seed}
	any := false
	if c := p.Interference; c != nil && c.RadarPowerDBm != 0 && c.DutyCycle > 0 {
		cc := c.withDefaults()
		inj.g = newGate(cc, seed)
		inj.jamAmp = math.Pow(10, c.RadarPowerDBm/20)
		inj.jamFrac = cc.RadarToneFraction
		inj.cJam = m.Counter(CounterRadarJammed)
		any = true
	}
	if d := p.Dropout; d != nil && d.Rate > 0 {
		inj.drop = d
		inj.cDrop = m.Counter(CounterRadarDropped)
		if d.ClipFraction > 0 {
			inj.cClip = m.Counter(CounterRadarClipped)
		}
		any = true
	}
	if !any {
		return nil
	}
	return inj
}

// EchoSamples returns how many leading samples of chirp idx carry the
// transmitted echo: n normally, a clipped prefix or zero when the TX dropped
// the chirp. Receiver noise is unaffected — a silent TX still leaves a live
// receiver. The dropout draw matches the tag side's DropState exactly.
func (r *RadarInjector) EchoSamples(idx, n int) int {
	if r == nil || r.drop == nil {
		return n
	}
	if splitmix.Uniform(r.seed, streamDropout, uint64(idx)) >= r.drop.Rate {
		return n
	}
	if r.drop.ClipFraction > 0 {
		r.cClip.Add(1)
		return int(r.drop.ClipFraction * float64(n))
	}
	r.cDrop.Add(1)
	return 0
}

// Jam adds the interference tone to chirp idx's IF buffer when the
// slow-time gate is on: a complex exponential with a fresh per-chirp phase,
// which is what an unsynchronized in-band emitter looks like after
// dechirping — energy that smears across the Doppler spectrum.
func (r *RadarInjector) Jam(buf []complex128, idx int) {
	if r == nil || r.jamAmp == 0 || !r.g.jammed(idx) {
		return
	}
	// The tone sits at jamFrac of the sample rate, so the per-sample phase
	// increment is 2π·jamFrac regardless of the absolute rate.
	dphi := 2 * math.Pi * r.jamFrac
	ph := 2 * math.Pi * splitmix.Uniform(r.seed, streamJamPhase, uint64(idx))
	for k := range buf {
		buf[k] += complex(r.jamAmp*math.Cos(ph), r.jamAmp*math.Sin(ph))
		ph += dphi
	}
	r.cJam.Add(1)
}
