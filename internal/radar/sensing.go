package radar

import (
	"fmt"
	"math"
	"sort"

	"biscatter/internal/dsp"
)

// MapTarget is one static object detected by the radar's primary sensing
// function.
type MapTarget struct {
	// Range is the refined target range in meters.
	Range float64
	// PowerDBm is the estimated echo power.
	PowerDBm float64
	// Bin is the range bin of the peak.
	Bin int
}

// EnvironmentMap runs the radar's primary sensing function on a corrected
// capture: it averages the per-chirp magnitude profiles (coherent across the
// frame thanks to the IF correction, even under CSSK) and extracts static
// targets with a CA-CFAR detector. This is the "radar keeps doing its job
// during communication" half of the ISAC story — the drone's obstacle map
// in the paper's warehouse scenario.
func (r *Radar) EnvironmentMap(matrix [][]float64, grid []float64) ([]MapTarget, error) {
	if len(matrix) == 0 || len(grid) < 8 {
		return nil, fmt.Errorf("radar: empty capture")
	}
	nBins := len(matrix[0])
	avg := make([]float64, nBins)
	for _, row := range matrix {
		for j, v := range row {
			avg[j] += v * v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(matrix))
	}
	cfar, err := dsp.NewCFAR(12, 4, 12)
	if err != nil {
		return nil, err
	}
	binWidth := grid[1] - grid[0]
	var out []MapTarget
	for _, bin := range cfar.Detect(avg) {
		if bin < 2 { // skip the DC/leakage region
			continue
		}
		mags := []float64{math.Sqrt(avg[max(bin-1, 0)]), math.Sqrt(avg[bin]), math.Sqrt(avg[min(bin+1, nBins-1)])}
		delta := 0.0
		if bin > 0 && bin < nBins-1 {
			d, _ := dsp.ParabolicPeak(mags, 1)
			delta = d
		}
		out = append(out, MapTarget{
			Range:    grid[bin] + delta*binWidth,
			PowerDBm: 10 * math.Log10(avg[bin]),
			Bin:      bin,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Range < out[j].Range })
	return out, nil
}
