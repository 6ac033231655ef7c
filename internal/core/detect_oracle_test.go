package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"biscatter/internal/dsp"
	"biscatter/internal/radar"
	"biscatter/internal/telemetry"
)

// frozenProfile is the single-tone signature scan the detectors below were
// written against: for every range bin, gather the slow-time column and take
// its Goertzel power at fMod.
func frozenProfile(matrix [][]float64, fMod, period float64) []float64 {
	if len(matrix) == 0 {
		return nil
	}
	prof := make([]float64, len(matrix[0]))
	col := make([]float64, len(matrix))
	for b := range prof {
		for i := range col {
			col[i] = matrix[i][b]
		}
		prof[b] = dsp.GoertzelPower(col, fMod, 1/period)
	}
	return prof
}

// frozenDetectTag is a frozen copy of the single-tone detector DetectTag
// ran (DetectTagExcluding with no exclusion mask). It returns the
// detection, the peak-to-sidelobe ratio the detector wrote to its gauge on
// success, and the error.
func frozenDetectTag(matrix [][]float64, grid []float64, fMod, period float64) (radar.Detection, float64, error) {
	prof := frozenProfile(matrix, fMod, period)
	if len(prof) < 3 {
		return radar.Detection{}, 0, fmt.Errorf("radar: signature profile too short (%d bins)", len(prof))
	}
	med := dsp.Median(prof)
	bin, peak := dsp.MaxIndex(prof)
	if med <= 0 || peak < radar.DetectionThreshold*med {
		return radar.Detection{}, 0, radar.ErrTagNotFound
	}
	delta := 0.0
	if bin > 0 && bin < len(prof)-1 {
		amps := []float64{math.Sqrt(prof[bin-1]), math.Sqrt(prof[bin]), math.Sqrt(prof[bin+1])}
		d, _ := dsp.ParabolicPeak(amps, 1)
		delta = d
	}
	binWidth := grid[1] - grid[0]
	det := radar.Detection{
		Range: grid[bin] + delta*binWidth,
		Bin:   bin,
		SNRdB: 10 * math.Log10(peak/med),
	}
	return det, radar.SignatureDiagWithMedian(prof, bin, med).PeakToSidelobeDB, nil
}

// frozenDetectNodes is a frozen copy of the joint multi-node detector the
// exchange ran: each active node's F0+F1 signature, every range bin owned by
// its strongest node, then a per-node peak over its own bins, the median
// threshold, parabolic refinement and diagnostics. Inactive nodes get
// ErrNodeInactive.
func frozenDetectNodes(nodes []*Node, active []bool, period float64, matrix [][]float64, grid []float64) ([]radar.Detection, []radar.DetectionDiag, []error) {
	nn := len(nodes)
	dets := make([]radar.Detection, nn)
	diags := make([]radar.DetectionDiag, nn)
	errs := make([]error, nn)
	nActive := 0
	for j := 0; j < nn; j++ {
		if active[j] {
			nActive++
		} else {
			errs[j] = ErrNodeInactive
		}
	}
	if nActive == 0 {
		return dets, diags, errs
	}
	profs := make([][]float64, nn)
	nBins := 0
	for j := range profs {
		if !active[j] {
			continue
		}
		p0 := frozenProfile(matrix, nodes[j].Uplink.F0, period)
		p1 := frozenProfile(matrix, nodes[j].Uplink.F1, period)
		s := make([]float64, len(p0))
		for b := range s {
			s[b] = p0[b] + p1[b]
		}
		profs[j] = s
		nBins = len(s)
	}
	owner := make([]int, nBins)
	for b := 0; b < nBins; b++ {
		best := -1
		for j := 0; j < nn; j++ {
			if !active[j] {
				continue
			}
			if best < 0 || profs[j][b] > profs[best][b] {
				best = j
			}
		}
		owner[b] = best
	}
	binWidth := grid[1] - grid[0]
	for j := range nodes {
		if !active[j] {
			continue
		}
		prof := profs[j]
		med := dsp.Median(prof)
		bestBin, bestVal := -1, 0.0
		for b := 0; b < nBins; b++ {
			if owner[b] == j && prof[b] > bestVal {
				bestBin, bestVal = b, prof[b]
			}
		}
		candBin := bestBin
		if candBin < 0 {
			candBin, _ = dsp.MaxIndex(prof)
		}
		diags[j] = radar.SignatureDiagWithMedian(prof, candBin, med)
		if bestBin < 0 || med <= 0 || bestVal < radar.DetectionThreshold*med {
			errs[j] = radar.ErrTagNotFound
			continue
		}
		delta := 0.0
		if bestBin > 0 && bestBin < nBins-1 {
			var amps [3]float64
			amps[0] = math.Sqrt(prof[bestBin-1])
			amps[1] = math.Sqrt(prof[bestBin])
			amps[2] = math.Sqrt(prof[bestBin+1])
			d, _ := dsp.ParabolicPeak(amps[:], 1)
			delta = d
		}
		dets[j] = radar.Detection{
			Range: grid[bestBin] + delta*binWidth,
			Bin:   bestBin,
			SNRdB: 10 * math.Log10(bestVal/med),
		}
	}
	return dets, diags, errs
}

// detectUnderTest runs the network's joint detector over the round's
// active set, the way the exchange and Localize do, and reports inactive
// nodes as ErrNodeInactive the way the exchange does.
func detectUnderTest(t *testing.T, n *Network, matrix [][]float64, grid []float64) ([]radar.Detection, []radar.DetectionDiag, []error) {
	t.Helper()
	dets, diags, errs, err := n.detect(context.Background(), matrix, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range n.scr.active {
		if !a {
			errs[i] = ErrNodeInactive
		}
	}
	return dets, diags, errs
}

// sameErr reports whether two detector errors are the same: the same
// sentinel, or (for formatted errors) the same message.
func sameErr(a, b error) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || errors.Is(a, radar.ErrTagNotFound) || errors.Is(a, ErrNodeInactive) {
		return false
	}
	return a.Error() == b.Error()
}

func sameDetection(a, b radar.Detection) bool {
	return math.Float64bits(a.Range) == math.Float64bits(b.Range) && a.Bin == b.Bin &&
		math.Float64bits(a.SNRdB) == math.Float64bits(b.SNRdB)
}

func sameDiag(a, b radar.DetectionDiag) bool {
	return a.PeakBin == b.PeakBin && math.Float64bits(a.PeakPower) == math.Float64bits(b.PeakPower) &&
		math.Float64bits(a.MedianPower) == math.Float64bits(b.MedianPower) &&
		math.Float64bits(a.PeakToSidelobeDB) == math.Float64bits(b.PeakToSidelobeDB)
}

// checkJoint compares the joint detector with its frozen copy over the
// network's current active set and returns how many nodes were detected.
func checkJoint(t *testing.T, n *Network, matrix [][]float64, grid []float64) int {
	t.Helper()
	wantDets, wantDiags, wantErrs := frozenDetectNodes(n.nodes, n.scr.active, n.cfg.Period, matrix, grid)
	dets, diags, errs := detectUnderTest(t, n, matrix, grid)
	found := 0
	for j := range n.nodes {
		if !sameErr(wantErrs[j], errs[j]) {
			t.Errorf("node %d: error %v, frozen detector %v", j, errs[j], wantErrs[j])
		}
		if !sameDetection(wantDets[j], dets[j]) {
			t.Errorf("node %d: detection %+v, frozen detector %+v", j, dets[j], wantDets[j])
		}
		if !sameDiag(wantDiags[j], diags[j]) {
			t.Errorf("node %d: diagnostics %+v, frozen detector %+v", j, diags[j], wantDiags[j])
		}
		if errs[j] == nil {
			found++
		}
	}
	return found
}

// checkSingle compares DetectTag with its frozen copy for one tone,
// including the detection gauges it writes on success.
func checkSingle(t *testing.T, n *Network, m *telemetry.Metrics, matrix [][]float64, grid []float64, fMod float64) {
	t.Helper()
	wantDet, wantPSL, wantErr := frozenDetectTag(matrix, grid, fMod, n.cfg.Period)
	det, err := n.radar.DetectTag(matrix, grid, fMod, n.cfg.Period)
	if !sameErr(wantErr, err) {
		t.Errorf("f=%v: DetectTag error %v, frozen detector %v", fMod, err, wantErr)
	}
	if !sameDetection(wantDet, det) {
		t.Errorf("f=%v: DetectTag %+v, frozen detector %+v", fMod, det, wantDet)
	}
	if err != nil {
		return
	}
	g := m.Snapshot().Gauges
	if math.Float64bits(g[radar.GaugeDetectionSNR]) != math.Float64bits(wantDet.SNRdB) ||
		math.Float64bits(g[radar.GaugeDetectionPSL]) != math.Float64bits(wantPSL) {
		t.Errorf("f=%v: gauges snr %v psl %v, frozen detector %v %v", fMod,
			g[radar.GaugeDetectionSNR], g[radar.GaugeDetectionPSL], wantDet.SNRdB, wantPSL)
	}
}

// observedMatrix runs one sensing frame with the given nodes active and
// returns its background-subtracted magnitude matrix and range grid.
func observedMatrix(t *testing.T, n *Network, active []int, bits map[int][]bool, chirps int) ([][]float64, []float64) {
	t.Helper()
	n.setActive(active)
	frame, err := n.BuildSensingFrame(chirps)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := n.buildScene(frame, bits)
	if err != nil {
		t.Fatal(err)
	}
	capt, err := n.radar.ObserveContext(context.Background(), frame, scene)
	if err != nil {
		t.Fatal(err)
	}
	cm, grid, err := n.radar.CorrectedMatrixContext(context.Background(), capt)
	if err != nil {
		t.Fatal(err)
	}
	return radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm)), slices.Clone(grid)
}

// toneMatrix builds a synthetic magnitude matrix of nBins range bins over
// chirps chirps: small seeded noise everywhere, plus a slow-time square
// wave at tones[b] in bin b.
func toneMatrix(chirps, nBins int, period float64, tones map[int]float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(3))
	m := make([][]float64, chirps)
	for i := range m {
		m[i] = make([]float64, nBins)
		for b := range m[i] {
			m[i][b] = 1e-3 * rng.NormFloat64()
			if f, ok := tones[b]; ok && math.Sin(2*math.Pi*f*float64(i)*period) >= 0 {
				m[i][b] += 1
			}
		}
	}
	grid := make([]float64, nBins)
	for b := range grid {
		grid[b] = 0.05 * float64(b)
	}
	return m, grid
}

// TestDetectorMatchesFrozenOracle pins the joint detector and DetectTag
// against frozen copies of the rules they replaced, bit for bit on every
// Detection and DetectionDiag field and on the error identity, across a
// near-far deployment, a frame schedule with inactive nodes sharing FSK
// pairs, degenerate matrices, and tags at the edge range bins — at 1, 2 and
// 4 workers.
func TestDetectorMatchesFrozenOracle(t *testing.T) {
	uplink := map[int][]bool{
		0: {true, false, true, true},
		1: {false, true, false, false},
		2: {true, true, false, true},
		3: {false, false, true, true},
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("near-far", func(t *testing.T) {
				m := telemetry.New()
				n, err := NewNetwork(Config{
					Nodes:        []NodeConfig{{ID: 1, Range: 1.1}, {ID: 2, Range: 1.4}, {ID: 3, Range: 4.7}, {ID: 4, Range: 5.3}},
					ChirpsPerBit: 64,
					Seed:         21,
					Workers:      workers,
				}, WithMetrics(m))
				if err != nil {
					t.Fatal(err)
				}
				for _, bits := range []map[int][]bool{uplink, nil} {
					matrix, grid := observedMatrix(t, n, nil, bits, 256)
					if found := checkJoint(t, n, matrix, grid); found == 0 {
						t.Error("near-far deployment: no node detected")
					}
					for _, node := range n.nodes {
						checkSingle(t, n, m, matrix, grid, node.Uplink.F0)
						checkSingle(t, n, m, matrix, grid, node.Uplink.F1)
					}
				}
				// A subset round: inactive nodes hold a static state.
				matrix, grid := observedMatrix(t, n, []int{0, 3}, uplink, 256)
				checkJoint(t, n, matrix, grid)
			})
			t.Run("scheduled", func(t *testing.T) {
				m := telemetry.New()
				cfg := fourNodeScheduledConfig(t)
				cfg.Workers = workers
				n, err := NewNetwork(cfg, WithMetrics(m))
				if err != nil {
					t.Fatal(err)
				}
				sched := cfg.Schedule
				for g := 0; g < sched.Frames(); g++ {
					grp := sched.AppendGroup(nil, g)
					for _, bits := range []map[int][]bool{uplink, nil} {
						matrix, grid := observedMatrix(t, n, grp, bits, 256)
						if found := checkJoint(t, n, matrix, grid); found == 0 {
							t.Errorf("group %d: no node detected", g)
						}
						for _, i := range grp {
							checkSingle(t, n, m, matrix, grid, n.nodes[i].Uplink.F0)
						}
					}
				}
				// Every node active at once: shared pairs contest the same
				// tones.
				matrix, grid := observedMatrix(t, n, nil, nil, 256)
				checkJoint(t, n, matrix, grid)
			})
			t.Run("degenerate", func(t *testing.T) {
				m := telemetry.New()
				n, err := NewNetwork(Config{
					Nodes:        []NodeConfig{{ID: 1, Range: 1.5}, {ID: 2, Range: 3.0}},
					ChirpsPerBit: 64,
					Seed:         5,
					Workers:      workers,
				}, WithMetrics(m))
				if err != nil {
					t.Fatal(err)
				}
				f0, f1 := n.nodes[0].Uplink.F0, n.nodes[1].Uplink.F1
				n.setActive(nil)

				zero, grid := toneMatrix(128, 64, n.cfg.Period, nil)
				for _, row := range zero {
					clear(row)
				}
				checkJoint(t, n, zero, grid)
				checkSingle(t, n, m, zero, grid, f0)

				// Profiles shorter than three bins, and no chirps at all.
				for _, nBins := range []int{0, 1, 2} {
					matrix, grid := toneMatrix(128, nBins, n.cfg.Period, map[int]float64{0: f0})
					checkSingle(t, n, m, matrix, grid, f0)
				}
				checkSingle(t, n, m, nil, nil, f0)

				// Tags at the first and the last range bin.
				matrix, grid := toneMatrix(128, 64, n.cfg.Period, map[int]float64{0: f0, 63: f1})
				if found := checkJoint(t, n, matrix, grid); found != 2 {
					t.Errorf("edge bins: %d of 2 nodes detected", found)
				}
				checkSingle(t, n, m, matrix, grid, f0)
				checkSingle(t, n, m, matrix, grid, f1)
			})
		})
	}
}
