package dsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCFARValidation(t *testing.T) {
	if _, err := NewCFAR(0, 2, 10); err == nil {
		t.Error("zero training cells should fail")
	}
	if _, err := NewCFAR(8, -1, 10); err == nil {
		t.Error("negative guard should fail")
	}
	if _, err := NewCFAR(8, 2, 1); err == nil {
		t.Error("factor <= 1 should fail")
	}
}

func TestCFARDetectsTargetsAboveFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 256)
	for i := range x {
		e := rng.NormFloat64()
		x[i] = e * e // exponential-ish noise floor
	}
	targets := []int{40, 120, 200}
	for _, b := range targets {
		x[b] = 200
		x[b-1], x[b+1] = 60, 60 // shoulders
	}
	cfar, err := NewCFAR(12, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := cfar.Detect(x)
	if len(got) != len(targets) {
		t.Fatalf("detected %v, want %v", got, targets)
	}
	for i, b := range targets {
		if got[i] != b {
			t.Fatalf("detected %v, want %v", got, targets)
		}
	}
}

func TestCFARAdaptsToVaryingFloor(t *testing.T) {
	// A target that would clear a global threshold is rejected when the
	// local floor is high — the point of CFAR.
	x := make([]float64, 200)
	for i := range x {
		if i < 100 {
			x[i] = 1 // quiet region
		} else {
			x[i] = 50 // hot clutter region
		}
	}
	x[50] = 30  // strong relative to quiet floor
	x[150] = 80 // only 1.6x the hot floor
	cfar, _ := NewCFAR(10, 2, 5)
	got := cfar.Detect(x)
	found := map[int]bool{}
	for _, b := range got {
		found[b] = true
	}
	if !found[50] {
		t.Fatalf("target at 50 missed: %v", got)
	}
	if found[150] {
		t.Fatalf("sub-threshold target at 150 should be rejected: %v", got)
	}
}

// cfarNoiseAlarms runs the false-alarm detector over one 512-cell draw of
// chi-square (one degree of freedom) noise and returns how many cells fire.
func cfarNoiseAlarms(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, 512)
	for i := range x {
		e := rng.NormFloat64()
		x[i] = e * e
	}
	cfar, _ := NewCFAR(16, 2, 14)
	return len(cfar.Detect(x))
}

// TestCFARFalseAlarmRateLow bounds the false alarms of pure noise twice: at
// most 3 in any one 512-cell draw, over 40 draws whose seeds come from a
// fixed source (fresh time-seeded draws would exceed it in about 0.07% of
// draws, failing the test now and then), and pooled over a fixed set of
// 2000 draws, where the rate per cell must stay under 1e-3. Measured, it is
// 7.3e-4; the per-draw bound alone allows up to 5.9e-3.
func TestCFARFalseAlarmRateLow(t *testing.T) {
	f := func(seed int64) bool {
		// Pure noise: expect at most a couple of false alarms.
		return cfarNoiseAlarms(seed) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	const draws = 2000
	alarms := 0
	for seed := int64(1); seed <= draws; seed++ {
		alarms += cfarNoiseAlarms(seed)
	}
	rate := float64(alarms) / (draws * 512)
	t.Logf("pooled false-alarm rate %.2e per cell (%d alarms)", rate, alarms)
	if rate > 1e-3 {
		t.Fatalf("pooled false-alarm rate %.2e per cell over %d draws, want ≤ 1e-3", rate, draws)
	}
}

func TestCFAREmptyAndTinyInput(t *testing.T) {
	cfar, _ := NewCFAR(4, 1, 10)
	if got := cfar.Detect(nil); got != nil {
		t.Fatal("nil input should detect nothing")
	}
	if got := cfar.Detect([]float64{5}); len(got) != 0 {
		t.Fatalf("single cell has no training data: %v", got)
	}
}
