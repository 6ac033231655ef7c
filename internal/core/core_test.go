package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"biscatter/internal/fmcw"
)

func oneNodeConfig(rangeM float64, seed int64) Config {
	return Config{
		Nodes: []NodeConfig{{ID: 1, Range: rangeM}},
		Seed:  seed,
	}
}

func TestNewNetworkDefaults(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.Config()
	if cfg.Preset.Name != "9GHz-LMX2492" {
		t.Fatalf("default preset %q", cfg.Preset.Name)
	}
	if cfg.SymbolBits != 5 || cfg.Period != 120e-6 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if n.Alphabet().DataSymbolCount() != 32 {
		t.Fatal("alphabet should have 32 data symbols")
	}
	if len(n.Nodes()) != 1 {
		t.Fatal("one node expected")
	}
	if n.DownlinkDataRate() <= 0 {
		t.Fatal("data rate must be positive")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Error("no nodes should fail")
	}
	if _, err := NewNetwork(oneNodeConfig(-1, 1)); err == nil {
		t.Error("negative range should fail")
	}
	bad := oneNodeConfig(3, 1)
	bad.SymbolBits = 14 // cannot fit at default ΔL
	if _, err := NewNetwork(bad); err == nil {
		t.Error("oversized symbol should fail")
	}
}

func TestLinkFromPreset(t *testing.T) {
	p := fmcw.Radar24GHz()
	l := LinkFromPreset(p)
	if l.Frequency != p.Chirp.CenterFrequency() {
		t.Fatal("frequency not propagated")
	}
	if l.TxPowerDBm != 8 {
		t.Fatal("tx power not propagated")
	}
}

func TestBuildDownlinkFramePadding(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2}
	frame, err := n.BuildDownlinkFrame(payload, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame.Chirps) != 100 {
		t.Fatalf("frame has %d chirps, want 100 (padded)", len(frame.Chirps))
	}
	// Padding chirps carry the header slope.
	hdr := n.Alphabet().Header().Duration
	last := frame.Chirps[len(frame.Chirps)-1].Params.Duration
	if math.Abs(last-hdr) > 1e-12 {
		t.Fatal("padding should use the header slope")
	}
}

func TestExchangeFullRound(t *testing.T) {
	// 2.6 m keeps the tag more than a resolution cell away from the office
	// clutter at 1.8 m and 3.2 m; a tag overlapping a strong static
	// reflector is biased by physics, not by a bug.
	n, err := NewNetwork(oneNodeConfig(2.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("cfg:rate=2")
	upBits := []bool{true, false, true, true, false, true, false, false}
	res, err := n.Exchange(payload, map[int][]bool{0: upBits})
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nodes[0]
	if nr.DownlinkErr != nil {
		t.Fatalf("downlink: %v", nr.DownlinkErr)
	}
	if !bytes.Equal(nr.DownlinkPayload, payload) {
		t.Fatalf("downlink payload %q, want %q", nr.DownlinkPayload, payload)
	}
	if nr.DetectionErr != nil {
		t.Fatalf("detection: %v", nr.DetectionErr)
	}
	if math.Abs(nr.Detection.Range-2.6) > 0.06 {
		t.Fatalf("localization error %.1f cm", math.Abs(nr.Detection.Range-2.6)*100)
	}
	if nr.UplinkErr != nil {
		t.Fatalf("uplink: %v", nr.UplinkErr)
	}
	if len(nr.UplinkBits) != len(upBits) {
		t.Fatalf("uplink bits %d, want %d", len(nr.UplinkBits), len(upBits))
	}
	for i := range upBits {
		if nr.UplinkBits[i] != upBits[i] {
			t.Fatalf("uplink bit %d wrong", i)
		}
	}
}

func TestExchangeMultiNode(t *testing.T) {
	cfg := Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 2.4},
			{ID: 2, Range: 5.2},
		},
		Seed: 4,
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xAB}
	bits0 := []bool{true, false, true}
	bits1 := []bool{false, true, true}
	res, err := n.Exchange(payload, map[int][]bool{0: bits0, 1: bits1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]bool{bits0, bits1} {
		nr := res.Nodes[i]
		if nr.DownlinkErr != nil || !bytes.Equal(nr.DownlinkPayload, payload) {
			t.Fatalf("node %d downlink: %v %q", i, nr.DownlinkErr, nr.DownlinkPayload)
		}
		if nr.DetectionErr != nil {
			t.Fatalf("node %d detection: %v", i, nr.DetectionErr)
		}
		wantRange := cfg.Nodes[i].Range
		if math.Abs(nr.Detection.Range-wantRange) > 0.08 {
			t.Fatalf("node %d localized at %v m, want %v", i, nr.Detection.Range, wantRange)
		}
		for k := range want {
			if nr.UplinkBits[k] != want[k] {
				t.Fatalf("node %d uplink bit %d wrong", i, k)
			}
		}
	}
}

func TestExchangeNoUplinkBitsStillLocalizes(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Exchange([]byte{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0].DetectionErr != nil {
		t.Fatalf("detection without uplink data: %v", res.Nodes[0].DetectionErr)
	}
	if res.Nodes[0].UplinkBits != nil {
		t.Fatal("no uplink bits requested, none should be decoded")
	}
}

func TestLocalizeSensingOnlyMode(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(4.2, 6))
	if err != nil {
		t.Fatal(err)
	}
	dets, err := n.Localize(nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dets[0].Range-4.2) > 0.05 {
		t.Fatalf("sensing-only localization %v m, want 4.2", dets[0].Range)
	}
}

func TestLocalizeWithCSSKFrameMatchesSensingOnly(t *testing.T) {
	// Fig. 16's claim: downlink communication does not degrade localization.
	n, err := NewNetwork(oneNodeConfig(3.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	sensing, err := n.Localize(nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := n.BuildDownlinkFrame(RandomPayload(9, 20), 64)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := n.Localize(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	eS := math.Abs(sensing[0].Range - 3.3)
	eC := math.Abs(comm[0].Range - 3.3)
	if eS > 0.05 || eC > 0.05 {
		t.Fatalf("localization errors: sensing %.1f cm, comm %.1f cm", eS*100, eC*100)
	}
}

func TestExchangeAtLongRangeDegrades(t *testing.T) {
	// At 20 m the downlink SNR (≈7 dB) is far below the 7 m operating
	// point; most packets must fail. A single packet can still survive by
	// luck, so this is a statistical check over several exchanges.
	failures := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		n, err := NewNetwork(oneNodeConfig(20, 8+int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		payload := RandomPayload(int64(trial), 8)
		res, err := n.Exchange(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes[0].DownlinkErr != nil || !bytes.Equal(res.Nodes[0].DownlinkPayload, payload) {
			failures++
		}
	}
	if failures < trials/2 {
		t.Fatalf("only %d/%d packets failed at 20 m; the link should be mostly broken", failures, trials)
	}
}

func TestMapEnvironmentFindsClutter(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 15))
	if err != nil {
		t.Fatal(err)
	}
	targets, err := n.MapEnvironment(32)
	if err != nil {
		t.Fatal(err)
	}
	// The office clutter reflectors must appear in the map.
	found := 0
	for _, c := range n.Config().Clutter {
		for _, tgt := range targets {
			if math.Abs(tgt.Range-c.Range) < 0.12 {
				found++
				break
			}
		}
	}
	if found < len(n.Config().Clutter)-1 {
		t.Fatalf("mapped %d of %d clutter objects: %+v", found, len(n.Config().Clutter), targets)
	}
}

func TestRandomPayloadDeterministic(t *testing.T) {
	a := RandomPayload(5, 16)
	b := RandomPayload(5, 16)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same payload")
	}
	c := RandomPayload(6, 16)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestCountBitErrors(t *testing.T) {
	errs, total := CountBitErrors([]byte{0xFF}, []byte{0x0F})
	if errs != 4 || total != 8 {
		t.Fatalf("errs=%d total=%d", errs, total)
	}
	errs, total = CountBitErrors([]byte{0xAA, 0x55}, []byte{0xAA})
	if errs != 8 || total != 16 {
		t.Fatalf("missing byte: errs=%d total=%d", errs, total)
	}
	errs, total = CountBitErrors([]byte{0xAA}, []byte{0xAA, 0xFF})
	if errs != 8 || total != 16 {
		t.Fatalf("extra trailing byte: errs=%d total=%d", errs, total)
	}
	errs, total = CountBitErrors(nil, []byte{0x01})
	if errs != 8 || total != 8 {
		t.Fatalf("all-spurious decode: errs=%d total=%d", errs, total)
	}
	errs, _ = CountBitErrors(nil, nil)
	if errs != 0 {
		t.Fatal("empty comparison should have no errors")
	}
}

func TestCountBitErrorsProperty(t *testing.T) {
	f := func(a []byte) bool {
		errs, total := CountBitErrors(a, a)
		return errs == 0 && total == len(a)*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
