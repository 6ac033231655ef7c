package channel

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFSPLKnownValue(t *testing.T) {
	// 2.4 GHz at 100 m is the textbook ≈80 dB.
	if got := FSPL(100, 2.4e9); math.Abs(got-80.05) > 0.1 {
		t.Fatalf("FSPL(100m, 2.4GHz) = %v dB, want ≈80", got)
	}
	if FSPL(0, 1e9) != 0 || FSPL(1, 0) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

func TestFSPLMonotonicityProperty(t *testing.T) {
	f := func(dRaw, fRaw uint16) bool {
		d := 0.5 + float64(dRaw%100)
		freq := 1e9 + float64(fRaw%24)*1e9
		return FSPL(d+1, freq) > FSPL(d, freq) && FSPL(d, freq+1e9) > FSPL(d, freq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFSPLInverseSquareSlope(t *testing.T) {
	// Doubling distance adds 6.02 dB.
	d1 := FSPL(2, 9.5e9) - FSPL(1, 9.5e9)
	if !approxEq(d1, 6.0206, 1e-3) {
		t.Fatalf("doubling distance added %v dB, want ≈6.02", d1)
	}
}

func TestThermalNoise(t *testing.T) {
	// 1 Hz, 0 dB NF → −174 dBm.
	if got := ThermalNoiseDBm(1, 0); !approxEq(got, -174, 1e-9) {
		t.Fatalf("thermal noise %v", got)
	}
	// 1 MHz, 10 dB NF → −104 dBm.
	if got := ThermalNoiseDBm(1e6, 10); !approxEq(got, -104, 1e-9) {
		t.Fatalf("thermal noise %v", got)
	}
}

func TestDefaultLinkValidates(t *testing.T) {
	if err := DefaultLink().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultLink()
	bad.Frequency = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero frequency should fail")
	}
	bad = DefaultLink()
	bad.IFBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero IF bandwidth should fail")
	}
}

func TestDownlinkSNRCalibratedToPaper(t *testing.T) {
	// Fig. 13: at 7 m the downlink operates at the equivalent of ≈16 dB SNR.
	l := DefaultLink()
	snr := l.DownlinkSNRdB(7)
	if snr < 12 || snr > 20 {
		t.Fatalf("downlink SNR at 7 m = %v dB, want ≈16 dB", snr)
	}
}

func TestDownlinkSNRDecreasesWithDistance(t *testing.T) {
	l := DefaultLink()
	prev := math.Inf(1)
	for d := 0.5; d <= 10; d += 0.5 {
		snr := l.DownlinkSNRdB(d)
		if snr >= prev {
			t.Fatalf("SNR not strictly decreasing at %v m", d)
		}
		prev = snr
	}
}

func TestUplinkSNRNeedsProcessingGain(t *testing.T) {
	// The raw tag echo at 7 m sits below the thermal floor; only the
	// range/Doppler processing gain lifts it above — the reason backscatter
	// radar links work at all (Fig. 15's post-processing SNRs).
	l := DefaultLink()
	raw := l.UplinkSNRdB(7, 0)
	if raw > 0 {
		t.Fatalf("raw uplink SNR at 7 m = %v dB; expected below the noise floor", raw)
	}
	withPG := l.UplinkSNRdB(7, ProcessingGainDB(256, 64))
	if withPG < 10 {
		t.Fatalf("post-processing uplink SNR at 7 m = %v dB; should be workable", withPG)
	}
	if l.UplinkSNRdB(0.5, ProcessingGainDB(256, 64)) < 40 {
		t.Fatal("uplink SNR at 0.5 m should be very strong")
	}
}

func TestUplinkSlopeIsFortyDBPerDecade(t *testing.T) {
	l := DefaultLink()
	drop := l.UplinkSNRdB(1, 0) - l.UplinkSNRdB(10, 0)
	if !approxEq(drop, 40, 1e-6) {
		t.Fatalf("uplink drop per decade = %v dB, want 40", drop)
	}
}

func TestRetroReflectorGainMatters(t *testing.T) {
	// Ablation: removing the Van Atta gain must cost exactly that many dB.
	l := DefaultLink()
	flat := l
	flat.TagRetroGainDBi = 0
	diff := l.UplinkSNRdB(5, 0) - flat.UplinkSNRdB(5, 0)
	if !approxEq(diff, l.TagRetroGainDBi, 1e-9) {
		t.Fatalf("retro gain contributes %v dB, want %v", diff, l.TagRetroGainDBi)
	}
}

func TestProcessingGain(t *testing.T) {
	if got := ProcessingGainDB(1024, 1); !approxEq(got, 30.1, 0.05) {
		t.Fatalf("1024-point gain %v dB", got)
	}
	if got := ProcessingGainDB(0, 0); got != 0 {
		t.Fatalf("degenerate gain %v", got)
	}
}

func TestEchoPowerDecaysWithRangeFourth(t *testing.T) {
	l := DefaultLink()
	p1 := l.EchoPowerDBm(Reflector{Range: 2, RCSdBsm: 0})
	p2 := l.EchoPowerDBm(Reflector{Range: 4, RCSdBsm: 0})
	if !approxEq(p1-p2, 12.04, 0.05) {
		t.Fatalf("doubling range changed echo by %v dB, want ≈12", p1-p2)
	}
	if !math.IsInf(l.EchoPowerDBm(Reflector{Range: 0}), -1) {
		t.Fatal("zero-range reflector should be -Inf")
	}
}

func TestOfficeClutterShape(t *testing.T) {
	refl := OfficeClutter()
	if len(refl) < 3 {
		t.Fatal("office clutter should be multipath-rich")
	}
	for _, r := range refl {
		if r.Range <= 0 {
			t.Fatalf("invalid reflector %+v", r)
		}
	}
}

func TestNoiseDeterminism(t *testing.T) {
	a := NewNoise(99).AddReal(make([]float64, 16), 1)
	b := NewNoise(99).AddReal(make([]float64, 16), 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical noise")
		}
	}
	c := NewNoise(100).AddReal(make([]float64, 16), 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestNoiseStatistics(t *testing.T) {
	n := NewNoise(7)
	const sigma = 2.5
	x := n.AddReal(make([]float64, 200000), sigma)
	var mean, varAcc float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		varAcc += (v - mean) * (v - mean)
	}
	varAcc /= float64(len(x))
	if math.Abs(mean) > 0.05 {
		t.Fatalf("noise mean %v, want ≈0", mean)
	}
	if math.Abs(varAcc-sigma*sigma) > 0.1*sigma*sigma {
		t.Fatalf("noise variance %v, want ≈%v", varAcc, sigma*sigma)
	}
}

func TestComplexNoiseTotalVariance(t *testing.T) {
	n := NewNoise(8)
	const sigma = 1.5
	x := n.AddComplex(make([]complex128, 100000), sigma)
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	if math.Abs(p-sigma*sigma) > 0.1*sigma*sigma {
		t.Fatalf("complex noise power %v, want %v", p, sigma*sigma)
	}
}

func TestNoiseZeroSigmaIsNoOp(t *testing.T) {
	n := NewNoise(1)
	x := []float64{1, 2}
	n.AddReal(x, 0)
	if x[0] != 1 || x[1] != 2 {
		t.Fatal("zero sigma should not modify signal")
	}
	c := []complex128{1i}
	n.AddComplex(c, 0)
	if c[0] != 1i {
		t.Fatal("zero sigma should not modify complex signal")
	}
}

func TestSigmaSNRRoundTrip(t *testing.T) {
	f := func(raw int8) bool {
		snr := float64(raw%40) + 5
		sigma := SigmaForSNR(1, snr)
		// A unit-amplitude tone carries power 1/2.
		return approxEq(10*math.Log10(0.5/(sigma*sigma)), snr, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
