package tag

import (
	"testing"
	"testing/quick"
)

func TestGoertzelMACsLinearInWindow(t *testing.T) {
	a := ComputeModel{WindowSamples: 60, Candidates: 34, EnergyPerMACpJ: 5}
	b := a
	b.WindowSamples = 120
	if b.GoertzelMACs() <= a.GoertzelMACs() {
		t.Fatal("more samples must cost more")
	}
	if got := a.GoertzelMACs(); got != 34*(60+4) {
		t.Fatalf("MACs %d", got)
	}
}

func TestFFTMACsUsesNextPowerOfTwo(t *testing.T) {
	a := ComputeModel{WindowSamples: 60, Candidates: 34, EnergyPerMACpJ: 5}
	// N=64, 6 stages: 4·(32·6) + 2·64 = 896.
	if got := a.FFTMACs(); got != 896 {
		t.Fatalf("FFT MACs %d, want 896", got)
	}
}

func TestEnergyAndPower(t *testing.T) {
	m := DefaultComputeModel()
	e := m.SymbolEnergyJ(1000)
	if e != 1000*5e-12 {
		t.Fatalf("energy %v", e)
	}
	// 1000 MACs at ~8333 symbols/s.
	p := m.DecodePowerW(1000, 8333)
	if p <= 0 || p > 1e-3 {
		t.Fatalf("decode power %v W implausible", p)
	}
}

func TestGoertzelSavingsPositiveProperty(t *testing.T) {
	// §4.1's claim holds whenever the candidate set is small relative to
	// the full spectrum: the bank must not cost more than the FFT until
	// candidates ≈ window size.
	f := func(winRaw, candRaw uint8) bool {
		m := ComputeModel{
			WindowSamples:  20 + int(winRaw)%200,
			Candidates:     2 + int(candRaw)%12,
			EnergyPerMACpJ: 5,
		}
		return m.GoertzelSavings() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSavingsOrderOfMagnitude(t *testing.T) {
	// With 34 candidates over ~60-sample windows, Goertzel and the FFT are
	// within the same order; the savings grow when only a few candidates
	// are live (e.g. tracking mode after sync locks a known symbol subset).
	tracking := DefaultComputeModel()
	tracking.Candidates = 4
	if s := tracking.GoertzelSavings(); s < 3 {
		t.Fatalf("tracking-mode savings %vx, expected >3x", s)
	}
}
