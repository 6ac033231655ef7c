package cssk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// testConfig mirrors the paper's 9 GHz setup: 1 GHz bandwidth, 120 µs chirp
// period, 20 µs minimum chirp, 45-inch coax ΔL at k = 0.7.
func testConfig(bits int) Config {
	const deltaL = 45 * 0.0254
	const k = 0.7
	return Config{
		Bandwidth:        1e9,
		Period:           120e-6,
		MinChirpDuration: 20e-6,
		DeltaT:           deltaL / (k * 299792458.0),
		MinBeatSpacing:   500,
		SymbolBits:       bits,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(5).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := testConfig(5)
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Bandwidth = 0 }),
		mod(func(c *Config) { c.Period = 0 }),
		mod(func(c *Config) { c.MinChirpDuration = 0 }),
		mod(func(c *Config) { c.MinChirpDuration = 100e-6 }), // above max (96 µs)
		mod(func(c *Config) { c.DeltaT = 0 }),
		mod(func(c *Config) { c.MinBeatSpacing = 0 }),
		mod(func(c *Config) { c.SymbolBits = 0 }),
		mod(func(c *Config) { c.SymbolBits = 17 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBeatRangeMatchesEquation11(t *testing.T) {
	c := testConfig(5)
	lo, hi := c.BeatRange()
	wantLo := c.Bandwidth * c.DeltaT / (0.8 * c.Period)
	wantHi := c.Bandwidth * c.DeltaT / c.MinChirpDuration
	if !approxEq(lo, wantLo, 1e-6) || !approxEq(hi, wantHi, 1e-6) {
		t.Fatalf("beat range (%v, %v), want (%v, %v)", lo, hi, wantLo, wantHi)
	}
	if hi <= lo {
		t.Fatal("beat range must be non-empty")
	}
}

func TestMaxSlopesAndBitsEquations12And13(t *testing.T) {
	c := testConfig(5)
	lo, hi := c.BeatRange()
	wantSlopes := int((hi-lo)/c.MinBeatSpacing) + 1
	if got := c.MaxSlopes(); got != wantSlopes {
		t.Fatalf("MaxSlopes %d, want %d", got, wantSlopes)
	}
	wantBits := int(math.Floor(math.Log2(float64(wantSlopes - 2))))
	if got := c.MaxSymbolBits(); got != wantBits {
		t.Fatalf("MaxSymbolBits %d, want %d", got, wantBits)
	}
}

func TestDataRateEquation14(t *testing.T) {
	// §3.2.2's example: 10-bit symbols at 100 µs period give 0.1 Mbps.
	c := Config{SymbolBits: 10, Period: 100e-6}
	if got := c.DataRate(); !approxEq(got, 1e5, 1e-6) {
		t.Fatalf("data rate %v, want 1e5 bit/s", got)
	}
}

func TestNewAlphabetStructure(t *testing.T) {
	a, err := NewAlphabet(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.DataSymbolCount() != 32 {
		t.Fatalf("data symbols %d, want 32", a.DataSymbolCount())
	}
	if a.Header().Kind != KindHeader || a.Sync().Kind != KindSync {
		t.Fatal("wrong preamble symbol kinds")
	}
	beats := a.Beats()
	if len(beats) != 34 {
		t.Fatalf("total beats %d, want 34", len(beats))
	}
	// Ascending and evenly spaced.
	spacing := beats[1] - beats[0]
	for i := 1; i < len(beats); i++ {
		if beats[i] <= beats[i-1] {
			t.Fatal("beats not ascending")
		}
		if !approxEq(beats[i]-beats[i-1], spacing, 1e-6) {
			t.Fatal("beats not evenly spaced")
		}
	}
	if spacing < testConfig(5).MinBeatSpacing {
		t.Fatalf("spacing %v below Δf_int", spacing)
	}
	if !approxEq(a.MinSpacing(), spacing, 1e-9) {
		t.Fatal("MinSpacing mismatch")
	}
}

func TestNewAlphabetHeaderIsLongestChirp(t *testing.T) {
	a, err := NewAlphabet(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// The header has the lowest beat → the longest chirp duration.
	if a.Header().Duration <= a.Sync().Duration {
		t.Fatal("header chirp should be longer than sync chirp")
	}
	maxDur := 0.8 * 120e-6
	if a.Header().Duration > maxDur+1e-12 {
		t.Fatalf("header duration %v exceeds duty-cycle limit %v", a.Header().Duration, maxDur)
	}
	if !approxEq(a.Sync().Duration, 20e-6, 1e-9) {
		t.Fatalf("sync duration %v, want the 20 µs minimum", a.Sync().Duration)
	}
}

func TestNewAlphabetCapacityLimit(t *testing.T) {
	c := testConfig(5)
	c.MinBeatSpacing = 50e3 // absurdly wide spacing: 5 bits cannot fit
	if _, err := NewAlphabet(c); err == nil {
		t.Fatal("expected capacity error")
	}
	if _, err := NewAlphabet(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestDurationsWithinRadarLimits(t *testing.T) {
	a, err := NewAlphabet(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	check := func(s Symbol) {
		if s.Duration < cfg.MinChirpDuration-1e-12 || s.Duration > maxDutyCycle*cfg.Period+1e-12 {
			t.Fatalf("%v symbol duration %v outside [%v, %v]",
				s.Kind, s.Duration, cfg.MinChirpDuration, maxDutyCycle*cfg.Period)
		}
	}
	check(a.Header())
	check(a.Sync())
	for i := 0; i < a.DataSymbolCount(); i++ {
		s, err := a.DataSymbol(i)
		if err != nil {
			t.Fatal(err)
		}
		check(s)
	}
}

func TestDataSymbolOutOfRange(t *testing.T) {
	a, _ := NewAlphabet(testConfig(3))
	if _, err := a.DataSymbol(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := a.DataSymbol(8); err == nil {
		t.Error("index past 2^bits should fail")
	}
}

func TestSymbolValueRoundTripProperty(t *testing.T) {
	a, err := NewAlphabet(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		v := raw % 32
		s, err := a.SymbolForValue(v)
		if err != nil {
			return false
		}
		back, err := a.ValueForSymbol(s)
		return err == nil && back == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolForValueRejectsOverflow(t *testing.T) {
	a, _ := NewAlphabet(testConfig(3))
	if _, err := a.SymbolForValue(8); err == nil {
		t.Fatal("value 8 does not fit in 3 bits")
	}
}

func TestValueForSymbolRejectsControl(t *testing.T) {
	a, _ := NewAlphabet(testConfig(3))
	if _, err := a.ValueForSymbol(a.Header()); err == nil {
		t.Fatal("header symbol should not decode to data")
	}
}

func TestGrayAdjacencyLimitsBitErrors(t *testing.T) {
	// Adjacent beats differ by exactly one bit after Gray decoding — the
	// reason a near-miss symbol decision costs 1 bit, not up to SymbolBits.
	a, err := NewAlphabet(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < a.DataSymbolCount(); i++ {
		s1, _ := a.DataSymbol(i)
		s2, _ := a.DataSymbol(i + 1)
		v1, err1 := a.ValueForSymbol(s1)
		v2, err2 := a.ValueForSymbol(s2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		diff := v1 ^ v2
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("adjacent symbols %d,%d differ in %b (not exactly one bit)", i, i+1, diff)
		}
	}
}

func TestGrayRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return GrayDecode(GrayEncode(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyBeatExact(t *testing.T) {
	a, _ := NewAlphabet(testConfig(4))
	for _, s := range []Symbol{a.Header(), a.Sync()} {
		got := a.ClassifyBeat(s.Beat)
		if got.Kind != s.Kind {
			t.Fatalf("beat %v classified as %v, want %v", s.Beat, got.Kind, s.Kind)
		}
	}
	for i := 0; i < a.DataSymbolCount(); i++ {
		s, _ := a.DataSymbol(i)
		got := a.ClassifyBeat(s.Beat)
		if got.Kind != KindData || got.Index != i {
			t.Fatalf("beat %v classified as %v/%d, want data/%d", s.Beat, got.Kind, got.Index, i)
		}
	}
}

func TestClassifyBeatNearestProperty(t *testing.T) {
	a, _ := NewAlphabet(testConfig(5))
	spacing := a.MinSpacing()
	f := func(raw uint32, jitterRaw int16) bool {
		v := raw % 32
		s, _ := a.SymbolForValue(v)
		jitter := float64(jitterRaw) / math.MaxInt16 * 0.45 * spacing
		got := a.ClassifyBeat(s.Beat + jitter)
		return got.Kind == KindData && got.Index == s.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyBeatExtremes(t *testing.T) {
	a, _ := NewAlphabet(testConfig(3))
	if got := a.ClassifyBeat(0); got.Kind != KindHeader {
		t.Fatal("far-below beat should classify as header (lowest)")
	}
	if got := a.ClassifyBeat(1e9); got.Kind != KindSync {
		t.Fatal("far-above beat should classify as sync (highest)")
	}
}

func TestDurations(t *testing.T) {
	a, _ := NewAlphabet(testConfig(3))
	durs, err := a.Durations([]uint32{0, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 3 {
		t.Fatalf("got %d durations", len(durs))
	}
	if _, err := a.Durations([]uint32{8}); err == nil {
		t.Fatal("overflow value should fail")
	}
}

func TestPackUnpackBitsRoundTripProperty(t *testing.T) {
	f := func(seed int64, bitsSel uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		symbolBits := 1 + int(bitsSel)%10
		bits := make([]bool, int(n))
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		packed := PackBits(bits, symbolBits)
		back := UnpackBits(packed, symbolBits, len(bits))
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackBitsPanicsOnBadSymbolBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackBits([]bool{true}, 0)
}

func TestBytesBitsRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		back := BitsToBytes(BytesToBits(data))
		if len(back) != len(data) {
			return false
		}
		for i := range data {
			if data[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0x80})
	if !bits[0] {
		t.Fatal("MSB should come first")
	}
	for _, b := range bits[1:] {
		if b {
			t.Fatal("only MSB should be set")
		}
	}
}

func TestSymbolKindString(t *testing.T) {
	if KindData.String() != "data" || KindHeader.String() != "header" ||
		KindSync.String() != "sync" || SymbolKind(9).String() != "SymbolKind(9)" {
		t.Fatal("unexpected SymbolKind strings")
	}
}

func TestUnpackBitsPadsShortInput(t *testing.T) {
	out := UnpackBits([]uint32{0b101}, 3, 5)
	want := []bool{true, false, true, false, false}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("bit %d: got %v want %v", i, out[i], want[i])
		}
	}
}
