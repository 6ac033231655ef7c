package tag

import (
	"math"
)

// ComputeModel estimates the tag MCU's arithmetic workload per decoded
// symbol, backing §4.1's argument that "replacing the FFT with the Goertzel
// filter ... can reduce power usage since evaluating the entire FFT
// spectrum is not necessary".
type ComputeModel struct {
	// WindowSamples is the per-chirp analysis window length N.
	WindowSamples int
	// Candidates is the number of constellation beats evaluated (Goertzel
	// runs one filter per candidate; the FFT computes everything).
	Candidates int
	// EnergyPerMACpJ is the energy of one multiply-accumulate in picojoules
	// (≈5 pJ for a low-power Cortex-M class MCU at 1 MHz).
	EnergyPerMACpJ float64
}

// DefaultComputeModel matches the paper's operating point: ~60-sample
// windows at the 1 MHz ADC, 34 candidate beats (32 data + header + sync).
func DefaultComputeModel() ComputeModel {
	return ComputeModel{
		WindowSamples:  60,
		Candidates:     34,
		EnergyPerMACpJ: 5,
	}
}

// GoertzelMACs returns the multiply-accumulates per symbol for the Goertzel
// bank: one MAC per sample per candidate (the single-coefficient recurrence)
// plus a constant finalization per candidate.
func (c ComputeModel) GoertzelMACs() int {
	return c.Candidates * (c.WindowSamples + 4)
}

// FFTMACs returns the multiply-accumulates per symbol for a radix-2 FFT
// over the next power-of-two window (N/2·log2 N complex butterflies, 4 MACs
// each) plus the magnitude pass.
func (c ComputeModel) FFTMACs() int {
	n := 1
	for n < c.WindowSamples {
		n <<= 1
	}
	stages := int(math.Round(math.Log2(float64(n))))
	butterflies := n / 2 * stages
	return 4*butterflies + 2*n
}

// SymbolEnergyJ returns the per-symbol decode energy in joules for the
// given MAC count.
func (c ComputeModel) SymbolEnergyJ(macs int) float64 {
	return float64(macs) * c.EnergyPerMACpJ * 1e-12
}

// DecodePowerW returns the average decode compute power in watts at the
// given symbol rate (symbols/s) for the given MAC count per symbol.
func (c ComputeModel) DecodePowerW(macs int, symbolRate float64) float64 {
	return c.SymbolEnergyJ(macs) * symbolRate
}

// GoertzelSavings returns the ratio of FFT to Goertzel MACs — how much
// §4.1's Goertzel substitution saves on the spectral-analysis workload.
func (c ComputeModel) GoertzelSavings() float64 {
	g := c.GoertzelMACs()
	if g == 0 {
		return 0
	}
	return float64(c.FFTMACs()) / float64(g)
}
