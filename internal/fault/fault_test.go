package fault

import (
	"math"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/splitmix"
	"biscatter/internal/telemetry"
)

// TestHashRNGDeterminism pins the stateless RNG contract: draws depend only
// on (seed, stream, idx), streams are isolated, and values are valid.
func TestHashRNGDeterminism(t *testing.T) {
	for idx := uint64(0); idx < 1000; idx++ {
		u := splitmix.Uniform(42, streamDropout, idx)
		if u != splitmix.Uniform(42, streamDropout, idx) {
			t.Fatalf("uniform not deterministic at idx %d", idx)
		}
		if u < 0 || u >= 1 {
			t.Fatalf("uniform(%d) = %v outside [0, 1)", idx, u)
		}
		if u == splitmix.Uniform(43, streamDropout, idx) {
			t.Fatalf("seed change did not move draw at idx %d", idx)
		}
		if u == splitmix.Uniform(42, streamDrift, idx) {
			t.Fatalf("stream change did not move draw at idx %d", idx)
		}
		if v := norm(42, streamDrift, idx); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("norm(%d) = %v not finite", idx, v)
		}
	}
	// Standard-normal draws should have roughly zero mean and unit variance.
	var sum, sumSq float64
	const n = 20000
	for i := uint64(0); i < n; i++ {
		v := norm(7, streamDrift, i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("norm mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("norm variance %v too far from 1", variance)
	}
}

// TestHashRNGKnownAnswers pins exact draws on every fault stream, recorded
// before the hash moved to internal/splitmix: every injected impairment is a
// function of these values, so a changed bit would silently re-draw every
// fault scenario.
func TestHashRNGKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed                int64
		stream, idx         uint64
		bits, uniform, norm uint64
	}{
		{42, streamGatePhase, 0, 0x37455aa816a949e6, 0x3fcba2ad540b54a4, 0x3fe85c50ace51bfe},
		{42, streamGatePhase, 7, 0x8bc899e717e31c91, 0x3fe179133ce2fc63, 0xbfc2d653c1535480},
		{-1, streamGatePhase, 123456789, 0xea77ef6d23bed232, 0x3fed4efdeda477da, 0xbfec4093e47ba55f},
		{42, streamJamPhase, 0, 0x544d4900861d77ff, 0x3fd513524021875c, 0x3fe01bb945ca9135},
		{42, streamJamPhase, 7, 0xf1856970a1721779, 0x3fee30ad2e142e42, 0xc003ed8c755eec9e},
		{-1, streamJamPhase, 123456789, 0xa7c153eb187a441c, 0x3fe4f82a7d630f48, 0x3fed38ce8ce229c4},
		{42, streamDropout, 0, 0xbfd72cc7ba039fea, 0x3fe7fae598f74073, 0xbfe60e3cf8ec3354},
		{42, streamDropout, 7, 0xe83734b6df7551f7, 0x3fed06e696dbeeaa, 0xbfdecd1ddb59d9ce},
		{-1, streamDropout, 123456789, 0xcc43fe80c9ee9b69, 0x3fe9887fd0193dd3, 0xbfe9a3c16fde662a},
		{42, streamDrift, 0, 0xa98044a30b1c8d15, 0x3fe5300894616391, 0xbfcae0312c6a3158},
		{42, streamDrift, 7, 0xf89e3169be7b73d2, 0x3fef13c62d37cf6e, 0x3fef977183d3e2d3},
		{-1, streamDrift, 123456789, 0x456c5c9051e9c9d2, 0x3fd15b1724147a72, 0x3feae38af450ef57},
		{42, streamDesync, 0, 0x5f3c3a0f65f28020, 0x3fd7cf0e83d97ca0, 0xbfa5088f99cece28},
		{42, streamDesync, 7, 0xc0cc113f6f757447, 0x3fe8198227edeeae, 0xc000bc6882124367},
		{-1, streamDesync, 123456789, 0x0547f42f13597de7, 0x3f951fd0bc4d65e0, 0x3fe69f3411be7abf},
	} {
		if got := splitmix.Bits(c.seed, c.stream, c.idx); got != c.bits {
			t.Errorf("Bits(%d, %d, %d) = %#016x, want %#016x", c.seed, c.stream, c.idx, got, c.bits)
		}
		if got := math.Float64bits(splitmix.Uniform(c.seed, c.stream, c.idx)); got != c.uniform {
			t.Errorf("Uniform(%d, %d, %d) bits = %#016x, want %#016x", c.seed, c.stream, c.idx, got, c.uniform)
		}
		if got := math.Float64bits(norm(c.seed, c.stream, c.idx)); got != c.norm {
			t.Errorf("norm(%d, %d, %d) bits = %#016x, want %#016x", c.seed, c.stream, c.idx, got, c.norm)
		}
	}
	for network, want := range map[int64]int64{0: -8889809922627736561, 424: 6851633958046143134, -9: 3894573167587392538} {
		if got := (&Profile{}).SeedFor(network); got != want {
			t.Errorf("SeedFor(%d) = %d, want %d", network, got, want)
		}
	}
}

// TestGateMonotoneSuperset is the property the monotone-BER conformance
// check rests on: at a fixed seed and period, every chirp jammed at duty d1
// is also jammed at any duty d2 > d1.
func TestGateMonotoneSuperset(t *testing.T) {
	duties := []float64{0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0}
	for _, seed := range []int64{1, 42, 987654321} {
		for _, period := range []int{1, 7, 16, 33} {
			var prev gate
			for di, duty := range duties {
				g := newGate(Interference{DutyCycle: duty, PeriodChirps: period}, seed)
				if duty > 0 && g.on < 1 {
					t.Fatalf("duty %v period %d: non-zero duty must jam at least one chirp", duty, period)
				}
				if duty == 1 && g.on != period {
					t.Fatalf("duty 1 period %d: on=%d, want full period", period, g.on)
				}
				for idx := 0; idx < 4*period; idx++ {
					if di > 0 && prev.jammed(idx) && !g.jammed(idx) {
						t.Fatalf("seed %d period %d: chirp %d jammed at duty %v but not %v",
							seed, period, idx, duties[di-1], duty)
					}
				}
				prev = g
			}
		}
	}
}

// TestGateDutyFraction checks the on-fraction tracks the requested duty.
func TestGateDutyFraction(t *testing.T) {
	g := newGate(Interference{DutyCycle: 0.5, PeriodChirps: 16}, 3)
	on := 0
	for i := 0; i < 16; i++ {
		if g.jammed(i) {
			on++
		}
	}
	if on != 8 {
		t.Errorf("duty 0.5 over 16 chirps jammed %d, want 8", on)
	}
	if g.jammed(-1) {
		t.Error("negative chirp index must never be jammed")
	}
}

// TestNilInjectorsAreInert pins the zero-cost disabled path: every method on
// a nil injector is a no-op with identity semantics.
func TestNilInjectorsAreInert(t *testing.T) {
	var ti *TagInjector
	if got := ti.StartJitter(120e-6); got != 0 {
		t.Errorf("nil StartJitter = %v, want 0", got)
	}
	if d, c := ti.DropState(5); d || c != 0 {
		t.Errorf("nil DropState = %v, %v", d, c)
	}
	if got := ti.BeatScale(3, 0.001); got != 1 {
		t.Errorf("nil BeatScale = %v, want 1", got)
	}
	samples := []float64{0.5, -1.5, 2.0}
	want := append([]float64(nil), samples...)
	ti.Jam(samples, 0, 0, 120e-6, 1e6, 1)
	ti.PostADC(samples, 1)
	for i := range samples {
		if samples[i] != want[i] {
			t.Fatalf("nil tag injector mutated samples: %v", samples)
		}
	}
	var ri *RadarInjector
	if got := ri.EchoSamples(2, 240); got != 240 {
		t.Errorf("nil EchoSamples = %d, want 240", got)
	}
	buf := []complex128{1 + 2i}
	ri.Jam(buf, 0)
	if buf[0] != 1+2i {
		t.Error("nil radar injector mutated IF buffer")
	}
}

// TestInjectorConstructionGating pins when construction yields nil (inert)
// versus a live injector, and that counters resolve only for enabled
// impairments.
func TestInjectorConstructionGating(t *testing.T) {
	m := telemetry.New()
	cases := []struct {
		name   string
		p      *Profile
		tagNil bool
		rdrNil bool
	}{
		{"nil profile", nil, true, true},
		{"empty profile", &Profile{}, true, true},
		{"zero-intensity dropout", &Profile{Dropout: &Dropout{Rate: 0}}, true, true},
		{"zero-duty interference", &Profile{Interference: &Interference{TagPowerDBm: -40, RadarPowerDBm: -70}}, true, true},
		{"clutter only", &Profile{Clutter: []channel.Reflector{{Range: 2, RCSdBsm: 0}}}, true, true},
		{"dropout", &Profile{Dropout: &Dropout{Rate: 0.2}}, false, false},
		{"tag-side interference only", &Profile{Interference: &Interference{TagPowerDBm: -40, DutyCycle: 0.5}}, false, true},
		{"radar-side interference only", &Profile{Interference: &Interference{RadarPowerDBm: -70, DutyCycle: 0.5}}, true, false},
		{"tag drift", &Profile{Tag: &TagFaults{Drift: &OscillatorDrift{Offset: 0.01}}}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ti := NewTagInjector(tc.p, 0, 9, 10, m)
			ri := NewRadarInjector(tc.p, 9, m)
			if (ti == nil) != tc.tagNil {
				t.Errorf("tag injector nil=%v, want %v", ti == nil, tc.tagNil)
			}
			if (ri == nil) != tc.rdrNil {
				t.Errorf("radar injector nil=%v, want %v", ri == nil, tc.rdrNil)
			}
		})
	}

	// A nil metrics registry must not break construction or injection.
	p := &Profile{Dropout: &Dropout{Rate: 1}}
	ti := NewTagInjector(p, 0, 9, 0, nil)
	if d, _ := ti.DropState(0); !d {
		t.Error("rate-1 dropout must drop every chirp")
	}
}

// TestPerNodeOverrides pins TagFor semantics: an explicit nil entry disables
// the shared tag faults for that node.
func TestPerNodeOverrides(t *testing.T) {
	shared := &TagFaults{Drift: &OscillatorDrift{Offset: 0.02}}
	override := &TagFaults{Desync: &Desync{MaxOffset: 0.5}}
	p := &Profile{
		Tag:   shared,
		Nodes: map[int]*TagFaults{1: nil, 2: override},
	}
	if got := p.TagFor(0); got != shared {
		t.Errorf("node 0 faults = %v, want shared", got)
	}
	if got := p.TagFor(1); got != nil {
		t.Errorf("node 1 faults = %v, want nil override", got)
	}
	if got := p.TagFor(2); got != override {
		t.Errorf("node 2 faults = %v, want override", got)
	}
	// Node 1's injector carries dropout et al. but no tag faults — with only
	// tag faults in the profile it must be fully inert.
	if inj := NewTagInjector(p, 1, 1, 0, nil); inj != nil {
		t.Error("node with nil override and no shared impairments must get a nil injector")
	}
	if inj := NewTagInjector(p, 0, 1, 0, nil); inj == nil {
		t.Error("node 0 must inherit the shared drift")
	}
}

// TestDropoutSharedBetweenSides pins the TX-dropout contract: the tag and
// the radar draw identical per-chirp decisions from the same profile seed.
func TestDropoutSharedBetweenSides(t *testing.T) {
	p := &Profile{Seed: 77, Dropout: &Dropout{Rate: 0.3}}
	ti := NewTagInjector(p, 0, 5, 0, nil)
	ri := NewRadarInjector(p, 5, nil)
	tiOther := NewTagInjector(p, 3, 5, 0, nil) // different node, same TX
	drops := 0
	for idx := 0; idx < 512; idx++ {
		d, _ := ti.DropState(idx)
		dOther, _ := tiOther.DropState(idx)
		rd := ri.EchoSamples(idx, 100) == 0
		if d != rd || d != dOther {
			t.Fatalf("chirp %d: tag=%v tagOther=%v radar=%v disagree", idx, d, dOther, rd)
		}
		if d {
			drops++
		}
	}
	if drops < 100 || drops > 210 {
		t.Errorf("rate-0.3 dropout dropped %d/512 chirps", drops)
	}
}

// TestDropoutClipFraction pins the clipped-prefix variant on both sides.
func TestDropoutClipFraction(t *testing.T) {
	p := &Profile{Seed: 77, Dropout: &Dropout{Rate: 1, ClipFraction: 0.25}}
	ti := NewTagInjector(p, 0, 5, 0, nil)
	ri := NewRadarInjector(p, 5, nil)
	if d, c := ti.DropState(0); !d || c != 0.25 {
		t.Errorf("DropState = %v, %v, want true, 0.25", d, c)
	}
	if got := ri.EchoSamples(0, 200); got != 50 {
		t.Errorf("EchoSamples = %d, want 50", got)
	}
}

// TestBeatScale pins drift semantics: offset shifts the beat, jitter is
// deterministic per chirp, and the scale never drops below the floor.
func TestBeatScale(t *testing.T) {
	p := &Profile{Seed: 9, Tag: &TagFaults{Drift: &OscillatorDrift{Offset: 0.05, DriftPerSecond: 1}}}
	ti := NewTagInjector(p, 0, 1, 0, nil)
	if got := ti.BeatScale(0, 0); !almost(got, 1.05) {
		t.Errorf("BeatScale(0, 0) = %v, want 1.05", got)
	}
	if got := ti.BeatScale(0, 0.01); !almost(got, 1.06) {
		t.Errorf("BeatScale(0, 0.01) = %v, want 1.06", got)
	}
	pj := &Profile{Seed: 9, Tag: &TagFaults{Drift: &OscillatorDrift{Jitter: 0.02}}}
	tj := NewTagInjector(pj, 0, 1, 0, nil)
	a, b := tj.BeatScale(4, 0), tj.BeatScale(4, 0)
	if a != b {
		t.Errorf("jitter not deterministic per chirp: %v vs %v", a, b)
	}
	floor := &Profile{Seed: 9, Tag: &TagFaults{Drift: &OscillatorDrift{Offset: -5}}}
	tf := NewTagInjector(floor, 0, 1, 0, nil)
	if got := tf.BeatScale(0, 0); got != 0.1 {
		t.Errorf("BeatScale floor = %v, want 0.1", got)
	}
}

// TestPostADC pins saturation: clipping bounds the samples and counts them,
// quantization snaps to the grid.
func TestPostADC(t *testing.T) {
	m := telemetry.New()
	p := &Profile{Seed: 1, Tag: &TagFaults{Saturation: &Saturation{ClipLevel: 1, Bits: 4}}}
	ti := NewTagInjector(p, 0, 1, 0, m)
	samples := []float64{0.3, 1.7, -2.5, 0.0, -0.99}
	ti.PostADC(samples, 1)
	step := 2.0 / 16
	for i, v := range samples {
		if v > 1 || v < -1 {
			t.Errorf("sample %d = %v escaped clip range", i, v)
		}
		q := math.Round((v+1)/step)*step - 1
		if !almost(v, q) {
			t.Errorf("sample %d = %v off the quantizer grid", i, v)
		}
	}
	if got := m.Counter(CounterTagSaturated).Value(); got != 2 {
		t.Errorf("saturated counter = %d, want 2", got)
	}
}

// TestJamTelemetryAndDuty pins the jam hooks: only gated chirps receive the
// tone, and the counters track exactly the jammed set.
func TestJamTelemetryAndDuty(t *testing.T) {
	m := telemetry.New()
	p := &Profile{
		Seed:         11,
		Interference: &Interference{TagPowerDBm: -40, RadarPowerDBm: -70, DutyCycle: 0.25, PeriodChirps: 8},
	}
	ti := NewTagInjector(p, 0, 1, 6, m)
	ri := NewRadarInjector(p, 1, m)
	const chirps = 64
	tagJammed, radarJammed := 0, 0
	for idx := 0; idx < chirps; idx++ {
		out := make([]float64, 120)
		ti.Jam(out, idx, 0, 120e-6, 1e6, 1)
		buf := make([]complex128, 120)
		ri.Jam(buf, idx)
		touched := false
		for _, v := range out {
			if v != 0 {
				touched = true
				break
			}
		}
		touchedIF := buf[0] != 0
		if touched != touchedIF {
			t.Fatalf("chirp %d: tag jammed=%v but radar jammed=%v", idx, touched, touchedIF)
		}
		if touched {
			tagJammed++
		}
		if touchedIF {
			radarJammed++
		}
	}
	if tagJammed != chirps/4 {
		t.Errorf("duty 0.25 jammed %d/%d chirps", tagJammed, chirps)
	}
	if got := m.Counter(CounterTagJammed).Value(); got != int64(tagJammed) {
		t.Errorf("tag jam counter = %d, want %d", got, tagJammed)
	}
	if got := m.Counter(CounterRadarJammed).Value(); got != int64(radarJammed) {
		t.Errorf("radar jam counter = %d, want %d", got, radarJammed)
	}
	// JSR 6 dB → tone amplitude ≈ 2× the nominal detector amplitude.
	out := make([]float64, 120)
	for idx := 0; idx < 8; idx++ {
		probe := make([]float64, 120)
		ti.Jam(probe, idx, 0, 120e-6, 1e6, 1)
		if probe[0] != 0 || probe[60] != 0 {
			copy(out, probe)
			break
		}
	}
	peak := 0.0
	for _, v := range out {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak < 1.8 || peak > 2.1 {
		t.Errorf("jam tone peak %v, want ≈ 2 for 6 dB JSR", peak)
	}
}

// TestProfileValidate pins the validation table.
func TestProfileValidate(t *testing.T) {
	valid := &Profile{
		Interference: &Interference{TagPowerDBm: -40, DutyCycle: 0.5},
		Dropout:      &Dropout{Rate: 0.1, ClipFraction: 0.5},
		Tag: &TagFaults{
			Drift:      &OscillatorDrift{Offset: 0.01, Jitter: 0.001},
			Saturation: &Saturation{ClipLevel: 1.5, Bits: 8},
			Desync:     &Desync{MaxOffset: 0.9},
		},
		Clutter: []channel.Reflector{{Range: 2.5, RCSdBsm: -3, Velocity: 1.2}},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if err := (*Profile)(nil).Validate(); err != nil {
		t.Fatalf("nil profile rejected: %v", err)
	}
	bad := []*Profile{
		{Interference: &Interference{DutyCycle: 1.5}},
		{Interference: &Interference{DutyCycle: -0.1}},
		{Interference: &Interference{DutyCycle: 0.5, TagToneFraction: 0.7}},
		{Dropout: &Dropout{Rate: 2}},
		{Dropout: &Dropout{Rate: 0.5, ClipFraction: 1}},
		{Tag: &TagFaults{Drift: &OscillatorDrift{Jitter: -1}}},
		{Tag: &TagFaults{Saturation: &Saturation{Bits: 99}}},
		{Tag: &TagFaults{Desync: &Desync{MaxOffset: -0.5}}},
		{Nodes: map[int]*TagFaults{0: {Saturation: &Saturation{ClipLevel: -1}}}},
		{Clutter: []channel.Reflector{{Range: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

// TestSeedFor pins seed resolution: explicit profile seeds win, derived
// seeds differ from the network seed and replay deterministically.
func TestSeedFor(t *testing.T) {
	if got := (&Profile{Seed: 123}).SeedFor(9); got != 123 {
		t.Errorf("explicit seed = %d, want 123", got)
	}
	d1 := (&Profile{}).SeedFor(9)
	d2 := (&Profile{}).SeedFor(9)
	if d1 != d2 {
		t.Error("derived seed not deterministic")
	}
	if d1 == 9 {
		t.Error("derived seed must differ from the network seed")
	}
	if (&Profile{}).SeedFor(10) == d1 {
		t.Error("derived seed must track the network seed")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
