package radar

import (
	"fmt"
	"math"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/cssk"
	"biscatter/internal/fault"
	"biscatter/internal/fmcw"
)

// frozenSynth is ObserveContext's IF synthesis as it stood before the
// phasor cache — one cos and one sin per sample, per scatterer, per chirp —
// copied verbatim apart from running serially over its own noise source of
// the radar's seed. It is the oracle that licenses the cache: Observe must
// reproduce its captures bit for bit.
type frozenSynth struct {
	cfg   Config
	noise *channel.Noise
}

type frozenScatterer struct {
	rng float64
	vel float64
	amp float64
	tag int
}

func newFrozenSynth(r *Radar) *frozenSynth {
	return &frozenSynth{cfg: r.cfg, noise: channel.NewNoise(r.cfg.Seed)}
}

func (o *frozenSynth) observe(frame *fmcw.Frame, scene Scene) [][]complex128 {
	nChirps := len(frame.Chirps)
	out := make([][]complex128, nChirps)
	noiseSigma := math.Pow(10, channel.ThermalNoiseDBm(o.cfg.Chirp.SampleRate, o.cfg.Link.RadarNoiseFigureDB)/20)

	var scats []frozenScatterer
	for _, c := range scene.Clutter {
		scats = append(scats, frozenScatterer{
			rng: c.Range,
			vel: c.Velocity,
			amp: math.Pow(10, o.cfg.Link.EchoPowerDBm(c)/20),
			tag: -1,
		})
	}
	for ti, tg := range scene.Tags {
		scats = append(scats, frozenScatterer{
			rng: tg.Range,
			vel: tg.Velocity,
			amp: math.Pow(10, tg.PowerDBm/20),
			tag: ti,
		})
	}

	haveNoise := noiseSigma > 0
	noise := make([][]complex128, nChirps)
	if haveNoise {
		for i, c := range frame.Chirps {
			nb := make([]complex128, c.Params.SamplesPerChirp())
			o.noise.AddComplex(nb, noiseSigma)
			noise[i] = nb
		}
	}

	residual := math.Pow(10, AbsorptiveResidualDB/20)
	fs := o.cfg.Chirp.SampleRate
	for i := range frame.Chirps {
		c := frame.Chirps[i]
		n := c.Params.SamplesPerChirp()
		buf := make([]complex128, n)
		chirpStart := float64(i) * frame.Period
		keep := scene.Faults.EchoSamples(i, n)
		for _, sc := range scats {
			amp := sc.amp
			if sc.tag >= 0 {
				st := scene.Tags[sc.tag].States
				if i < len(st) && !st[i] {
					amp *= residual
				}
			}
			rng := sc.rng + sc.vel*chirpStart
			fIF := c.Params.IFFrequency(rng)
			dphi := 2 * math.Pi * fIF / fs
			ph := frozenGeomPhase(rng, o.cfg.Chirp.StartFrequency)
			for k := 0; k < keep; k++ {
				buf[k] += complex(amp*math.Cos(ph), amp*math.Sin(ph))
				ph += dphi
			}
		}
		if haveNoise {
			nb := noise[i]
			for k := range buf {
				buf[k] += nb[k]
			}
		}
		scene.Faults.Jam(buf, i)
		out[i] = buf
	}
	return out
}

func frozenGeomPhase(rng, f0 float64) float64 {
	return math.Mod(4*math.Pi*f0*rng/fmcw.SpeedOfLight, 2*math.Pi)
}

// sameCapture reports the first sample whose bits differ between two
// captures, or "" when they are identical.
func sameCapture(got, want [][]complex128) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d chirps, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("chirp %d: %d samples, want %d", i, len(got[i]), len(want[i]))
		}
		for k, w := range want[i] {
			g := got[i][k]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				return fmt.Sprintf("chirp %d sample %d: %v, want %v", i, k, g, w)
			}
		}
	}
	return ""
}

// alphabetDurations returns every chirp duration of a 4-bit CSSK
// constellation (header, data symbols, sync), cycled over n chirps.
func alphabetDurations(t *testing.T, n int) []float64 {
	t.Helper()
	a, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        1e9,
		Period:           tPeriod,
		MinChirpDuration: 20e-6,
		DeltaT:           45 * 0.0254 / (0.7 * fmcw.SpeedOfLight),
		MinBeatSpacing:   500,
		SymbolBits:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := []float64{a.Header().Duration, a.Sync().Duration}
	for i := 0; i < a.DataSymbolCount(); i++ {
		s, err := a.DataSymbol(i)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s.Duration)
	}
	durs := make([]float64, n)
	for i := range durs {
		durs[i] = all[(i*7)%len(all)]
	}
	return durs
}

// TestObserveMatchesFrozenSynthesis runs sequences of frames through
// Observe and the frozen synthesis side by side, at several worker counts,
// and requires bit-identical captures: static scatterers take the phasor
// cache, moving ones the per-sample path, and a scene whose ranges change
// replaces the cache.
func TestObserveMatchesFrozenSynthesis(t *testing.T) {
	b := testBuilder(t)
	const nChirps = 96
	mixed := alphabetDurations(t, nChirps)
	uniform := make([]float64, nChirps)
	for i := range uniform {
		uniform[i] = 60e-6
	}
	twoTags := func(r1, r2 float64) []TagEcho {
		return []TagEcho{
			{Range: r1, States: toneStates(2e3, nChirps), PowerDBm: -95},
			{Range: r2, States: toneStates(3.1e3, nChirps), PowerDBm: -98},
		}
	}
	office := Scene{Clutter: channel.OfficeClutter(), Tags: twoTags(2.0, 3.7)}
	moved := Scene{Clutter: channel.OfficeClutter(), Tags: twoTags(2.4, 3.7)}
	fewer := Scene{Clutter: channel.OfficeClutter()[:3], Tags: twoTags(2.0, 3.7)}
	moving := Scene{
		Clutter: append(channel.OfficeClutter(),
			channel.Reflector{Range: 2.6, RCSdBsm: 3, Velocity: 1.4},
			channel.Reflector{Range: 5.2, RCSdBsm: -2, Velocity: -0.7}),
		Tags: append(twoTags(2.0, 3.7), TagEcho{Range: 4.4, Velocity: 0.3, States: toneStates(1.3e3, nChirps), PowerDBm: -96}),
	}
	faults := func(p *fault.Profile) *fault.RadarInjector {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return fault.NewRadarInjector(p, 5, nil)
	}
	clipped := office
	clipped.Faults = faults(&fault.Profile{Dropout: &fault.Dropout{Rate: 0.3, ClipFraction: 0.4}})
	dropped := office
	dropped.Faults = faults(&fault.Profile{
		Dropout:      &fault.Dropout{Rate: 0.25},
		Interference: &fault.Interference{RadarPowerDBm: -70, DutyCycle: 0.5},
	})
	degenerate := Scene{Clutter: []channel.Reflector{{Range: 0, RCSdBsm: 0}, {Range: math.NaN(), RCSdBsm: 0}, {Range: 3, RCSdBsm: 0}}}

	type step struct {
		durs  []float64
		scene Scene
	}
	// In a replacing case every step changes the static geometry, so the
	// cache must afterwards hold exactly what a fresh radar warmed for that
	// step's frame holds.
	cases := []struct {
		name      string
		steps     []step
		replacing bool
	}{
		{"office two tags, uniform then CSSK", []step{{uniform, office}, {mixed, office}, {mixed, office}}, false},
		{"TX dropout with clipped prefix", []step{{mixed, clipped}, {mixed, clipped}}, false},
		{"TX dropout and jamming", []step{{mixed, dropped}}, false},
		{"moving fault clutter and a moving tag", []step{{mixed, moving}, {uniform, moving}}, false},
		{"scene ranges change between frames", []step{{mixed, office}, {mixed, moved}, {mixed, office}, {mixed, fewer}, {uniform, Scene{}}, {mixed, office}}, true},
		{"zero and NaN ranges", []step{{uniform, degenerate}}, true},
	}
	newRadar := func(t *testing.T, workers int) *Radar {
		r, err := New(Config{
			Chirp:   fmcw.ChirpParams{StartFrequency: 9e9, Bandwidth: 1e9, Duration: 60e-6, SampleRate: 4e6},
			Link:    channel.DefaultLink(),
			Seed:    31,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				r := newRadar(t, workers)
				oracle := newFrozenSynth(r)
				for s, st := range tc.steps {
					frame, err := b.Build(st.durs)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle.observe(frame, st.scene)
					if diff := sameCapture(r.Observe(frame, st.scene).IF, want); diff != "" {
						t.Fatalf("frame %d: %s", s, diff)
					}
					if !tc.replacing {
						continue
					}
					fresh := newRadar(t, 1)
					fresh.WarmPhasors(frame, st.scene)
					if got, want := r.CacheBytes(), fresh.CacheBytes(); got != want {
						t.Fatalf("frame %d: phasor cache holds %d B, a fresh radar warmed for this frame %d B", s, got, want)
					}
				}
			})
		}
	}
}
