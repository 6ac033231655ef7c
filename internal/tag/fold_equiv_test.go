package tag

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// naiveFold is the per-sample math.Mod fold that foldPeriodInto replaced —
// reproduced verbatim from the original decoder loops so the restructured
// run-based fold can be pinned against it bit for bit.
func naiveFold(folded []float64, counts []int, x []float64, period float64, square bool) {
	bins := len(folded)
	for i, v := range x {
		if square {
			v = v * v
		}
		b := int(math.Mod(float64(i), period))
		if b >= bins {
			b = bins - 1
		}
		folded[b] += v
		counts[b]++
	}
}

// TestFoldPeriodIntoMatchesNaiveMod is the equivalence oracle for the
// fused run-based fold: across random signals and awkward periods (integer,
// just below and just above an integer, irrational-ish) the fold must
// reproduce the naive per-sample loop's per-bin sums bit-identically and
// its counts exactly. Capture lengths end on a fused-group boundary, mid
// group and mid run, so the fused passes, the single-run tail and the
// spill onto the last bin are all exercised. Bit equality holds because
// both fold each bin's samples in ascending index order; only the bin-index
// computation and the pass structure changed. The squared variant is the
// AlignChirpStart fold, which now squares into the power scratch first.
func TestFoldPeriodIntoMatchesNaiveMod(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	periods := []float64{
		4, 5, 7.3, 16, 29.999999999, 30.000000001, 59.9999999, 60.0000001,
		119.97, 120, 120.00000000001, 255.5, 1000.0 / 3,
	}
	for _, period := range periods {
		bins := int(period)
		lengths := []int{50 + rng.Intn(4000)}
		for _, runs := range []int{2, 7, 8, 9, 16, 17, 23, 64} {
			end := ceilMulExact(float64(runs), period)
			lengths = append(lengths, end, end+1, end+bins/2, end+bins-1)
		}
		for _, n := range lengths {
			if 2*bins > n {
				continue
			}
			x := make([]float64, n)
			sq := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				sq[i] = x[i] * x[i]
			}
			for _, square := range []bool{false, true} {
				in := x
				if square {
					in = sq
				}
				gotF := make([]float64, bins)
				gotC := make([]int, bins)
				foldPeriodInto(gotF, gotC, in, period)
				wantF := make([]float64, bins)
				wantC := make([]int, bins)
				naiveFold(wantF, wantC, x, period, square)
				for b := 0; b < bins; b++ {
					if math.Float64bits(gotF[b]) != math.Float64bits(wantF[b]) {
						t.Fatalf("period=%v n=%d square=%v bin %d: fold %v, naive %v",
							period, n, square, b, gotF[b], wantF[b])
					}
					if gotC[b] != wantC[b] {
						t.Fatalf("period=%v n=%d square=%v bin %d: count %d, naive %d",
							period, n, square, b, gotC[b], wantC[b])
					}
				}
			}
		}
	}
}

// TestCeilMulExact pins the FMA two-product ceiling against exact rational
// arithmetic: for every (k, period) the result must be ⌈k·period⌉ of the
// infinitely precise product, which big.Float evaluates directly.
func TestCeilMulExact(t *testing.T) {
	exact := func(k, period float64) int {
		p := new(big.Float).SetPrec(200).SetFloat64(k)
		p.Mul(p, new(big.Float).SetPrec(200).SetFloat64(period))
		i, acc := p.Int64()
		if acc == big.Exact {
			return int(i) // integer product: ceil is itself
		}
		if p.Sign() > 0 {
			return int(i) + 1 // Int64 truncates toward zero
		}
		return int(i)
	}
	rng := rand.New(rand.NewSource(12))
	// Deterministic edge cases: periods whose rounded products sit right on
	// integer boundaries, plus exact integers.
	cases := [][2]float64{
		{0, 7.5}, {1, 7.5}, {3, 120}, {7, 29.999999999}, {7, 30.000000001},
		{1000, 1000.0 / 3}, {999999, 119.97}, {12345, 0.1},
	}
	for _, c := range cases {
		if got, want := ceilMulExact(c[0], c[1]), exact(c[0], c[1]); got != want {
			t.Errorf("ceilMulExact(%v, %v) = %d, want %d", c[0], c[1], got, want)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		k := float64(rng.Intn(1 << 20))
		period := rng.Float64()*1000 + 0.001
		if got, want := ceilMulExact(k, period), exact(k, period); got != want {
			t.Fatalf("ceilMulExact(%v, %v) = %d, want %d", k, period, got, want)
		}
	}
}
