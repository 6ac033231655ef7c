package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageSmoothing(t *testing.T) {
	x := []float64{0, 0, 10, 0, 0}
	out := MovingAverageInto(nil, x, 3)
	if !approxEq(out[2], 10.0/3, 1e-12) {
		t.Fatalf("center sample %v, want %v", out[2], 10.0/3)
	}
	if !approxEq(out[1], 10.0/3, 1e-12) {
		t.Fatalf("neighbor sample %v, want %v", out[1], 10.0/3)
	}
}

func TestMovingAverageWidthOneCopies(t *testing.T) {
	x := []float64{1, 2, 3}
	out := MovingAverageInto(nil, x, 1)
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("width-1 moving average should copy input")
		}
	}
	out[0] = 99
	if x[0] == 99 {
		t.Fatal("output aliases input")
	}
}

func TestMovingAveragePreservesMeanProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 200)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		w := 1 + 2*(int(width)%5) // odd widths 1..9
		out := MovingAverageInto(nil, x, w)
		// Reflection padding keeps the mean approximately unchanged.
		return math.Abs(mean(out)-mean(x)) < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// mean returns the arithmetic mean of x.
func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestRemoveDC(t *testing.T) {
	x := []float64{5, 6, 7}
	RemoveDC(x)
	if !approxEq(mean(x), 0, 1e-12) {
		t.Fatalf("mean after RemoveDC = %v", mean(x))
	}
}

func TestStats(t *testing.T) {
	if RMS(nil) != 0 {
		t.Fatal("empty-input RMS should be 0")
	}
	x := []float64{1, 2, 3, 4}
	if !approxEq(RMS(x), math.Sqrt(7.5), 1e-12) {
		t.Fatalf("rms %v", RMS(x))
	}
}
