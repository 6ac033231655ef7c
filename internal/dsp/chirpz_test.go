package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// chirpZ runs a plan over x into a fresh work buffer.
func chirpZ(t *testing.T, x []complex128, bins int, delta, scale float64) []complex128 {
	t.Helper()
	p, err := ChirpZFor(len(x), bins, delta)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]complex128, p.Size())
	copy(a, x)
	p.Forward(a)
	out := make([]complex128, bins)
	p.Evaluate(out, a, scale)
	return out
}

// directDTFT evaluates Σ_n x_n e^{−2πi·f_j·n} at f_j = j·delta, reducing
// f_j·n modulo 1 before forming the angle.
func directDTFT(x []complex128, bins int, delta float64) []complex128 {
	out := make([]complex128, bins)
	for j := range out {
		for n, v := range x {
			s, c := math.Sincos(-2 * math.Pi * math.Mod(float64(j)*delta*float64(n), 1))
			out[j] += v * complex(c, s)
		}
	}
	return out
}

// maxErrOfPeak returns max_j |got_j − want_j| / max_j |want_j|.
func maxErrOfPeak(got, want []complex128) float64 {
	var peak, worst float64
	for j := range want {
		peak = max(peak, cmplx.Abs(want[j]))
		worst = max(worst, cmplx.Abs(got[j]-want[j]))
	}
	return worst / peak
}

// TestChirpZMatchesDirectDTFT checks the chirp-z transform against the
// direct DTFT over random lengths, bin counts and spacings, including
// spacings past one cycle per sample across the grid (the DTFT wraps).
func TestChirpZMatchesDirectDTFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(600)
		bins := 1 + rng.Intn(600)
		delta := rng.Float64() * 2 / float64(bins)
		x := randomComplexSignal(rng, m)
		scale := 0.5 + rng.Float64()
		got := chirpZ(t, x, bins, delta, scale)
		want := directDTFT(x, bins, delta)
		for j := range want {
			want[j] *= complex(scale, 0)
		}
		if e := maxErrOfPeak(got, want); e > 1e-12 {
			t.Fatalf("m=%d bins=%d delta=%v: off the direct DTFT by %.3g of the peak", m, bins, delta, e)
		}
	}
}

// TestChirpZMatchesFrozenKernel builds each chirp-z row from the frozen
// kernel's steps — the q premultiply, a frozen forward transform, the
// product with a kernel spectrum the frozen forward also computes, a frozen
// unnormalized inverse, then the output twiddles and the scale — and pins
// Forward and Evaluate to it bit for bit at the IF correction's 512 bins.
// Evaluate's unnormalized inverse is the one transform entry that no other
// frozen test reaches directly.
func TestChirpZMatchesFrozenKernel(t *testing.T) {
	const bins = 512
	rng := rand.New(rand.NewSource(31))
	for _, delta := range []float64{1.0 / 700, 1.0 / 457, 1.7 / bins} {
		for _, m := range []int{1, 80, 240, 384, 512, 513} {
			p, err := ChirpZFor(m, bins, delta)
			if err != nil {
				t.Fatal(err)
			}
			n := p.Size()
			frozen := frozenNewFFTPlan(n)
			kern := make([]complex128, n)
			for k := 0; k <= n/2; k++ {
				kk := float64(k) * float64(k)
				s, c := math.Sincos(math.Pi * math.Mod(delta*kk, 2))
				kern[k] = complex(c, s)
				kern[(n-k)%n] = kern[k]
			}
			frozen.execute(kern, false)
			what := fmt.Sprintf("m=%d delta=%v", m, delta)
			assertSameComplex(t, what+" kernel spectrum", p.kern, kern[:n/2+1])

			x := randomComplexSignal(rng, m)
			w := Hann(m)
			a := make([]complex128, n)
			for k := range x {
				a[k] = x[k] * complex(w[k], 0)
			}
			want := append([]complex128(nil), a...)
			for k, v := range p.q[:m] {
				want[k] *= v
			}
			frozen.execute(want, false)
			p.Forward(a)
			assertSameComplex(t, what+" Forward", a, want)

			for k := range want {
				want[k] *= kern[min(k, n-k)] // the plan keeps bins 0…N/2
			}
			frozen.execute(want, true)
			const scale = 0.37
			s := scale / float64(n)
			row := make([]complex128, bins)
			for j := range row {
				y := want[j] * p.q[j]
				row[j] = complex(real(y)*s, imag(y)*s)
			}
			got := make([]complex128, bins)
			p.Evaluate(got, a, scale)
			assertSameComplex(t, what+" Evaluate", got, row)
		}
	}
}

// TestChirpZAtDFTBinsMatchesFFT checks the special case delta = 1/n: the
// chirp-z transform of m ≤ n samples is then the n-point DFT of the
// zero-padded input.
func TestChirpZAtDFTBinsMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ m, n int }{{1, 1}, {1, 8}, {5, 8}, {80, 512}, {384, 512}, {512, 512}} {
		x := randomComplexSignal(rng, tc.m)
		padded := make([]complex128, tc.n)
		copy(padded, x)
		want := FFT(padded)
		got := chirpZ(t, x, tc.n, 1/float64(tc.n), 1)
		if e := maxErrOfPeak(got, want); e > 1e-12 {
			t.Fatalf("m=%d n=%d: off the FFT by %.3g of the peak", tc.m, tc.n, e)
		}
	}
}

// TestChirpZPlanShared checks that plans are built once per (m, bins,
// delta) and that invalid shapes are rejected.
func TestChirpZPlanShared(t *testing.T) {
	a, err := ChirpZFor(384, 512, 1.0/600)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ChirpZFor(384, 512, 1.0/600)
	if a != b {
		t.Error("same shape built two plans")
	}
	if c, _ := ChirpZFor(384, 512, 1.0/601); c == a {
		t.Error("different spacings share a plan")
	}
	if a.Size() != 1024 || a.Bytes() != 16*(512+513) {
		t.Errorf("Size %d, Bytes %d; want 1024, %d", a.Size(), a.Bytes(), 16*(512+513))
	}
	for _, bad := range []struct {
		m, bins int
		delta   float64
	}{{0, 8, 0.1}, {8, 0, 0.1}, {8, 8, math.NaN()}, {8, 8, math.Inf(1)}} {
		if _, err := ChirpZFor(bad.m, bad.bins, bad.delta); err == nil {
			t.Errorf("ChirpZFor(%d, %d, %v) succeeded", bad.m, bad.bins, bad.delta)
		}
	}
}

// TestChirpZAllocFree pins the per-chirp steps at zero allocations.
func TestChirpZAllocFree(t *testing.T) {
	p, err := ChirpZFor(240, 512, 1.0/700)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]complex128, p.Size())
	dst := make([]complex128, 512)
	allocs := testing.AllocsPerRun(100, func() {
		clear(a[240:])
		p.Forward(a)
		p.Evaluate(dst, a, 1)
	})
	if allocs != 0 {
		t.Fatalf("chirp-z allocates %v times per call, want 0", allocs)
	}
}

// TestChirpZConcurrentUse builds and runs one shared plan from several
// goroutines at once, as the engines of a fleet do: every goroutine gets
// the same plan and bit-identical rows.
func TestChirpZConcurrentUse(t *testing.T) {
	x := randomComplexSignal(rand.New(rand.NewSource(3)), 200)
	const workers = 4
	plans := make([]*ChirpZPlan, workers)
	rows := make([][]complex128, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := ChirpZFor(len(x), 300, 1.0/457)
			if err != nil {
				t.Error(err)
				return
			}
			a := make([]complex128, p.Size())
			copy(a, x)
			p.Forward(a)
			rows[w] = make([]complex128, 300)
			p.Evaluate(rows[w], a, 1)
			plans[w] = p
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if plans[w] != plans[0] {
			t.Fatalf("goroutine %d got its own plan", w)
		}
		for j := range rows[0] {
			if rows[w][j] != rows[0][j] {
				t.Fatalf("goroutine %d bin %d: %v, goroutine 0 %v", w, j, rows[w][j], rows[0][j])
			}
		}
	}
}

// BenchmarkChirpZ times one IF-correction row: the forward and evaluate
// steps of a 512-bin plan at chirp lengths across the CSSK range.
func BenchmarkChirpZ(b *testing.B) {
	for _, m := range []int{80, 240, 384} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p, err := ChirpZFor(m, 512, 1.0/700)
			if err != nil {
				b.Fatal(err)
			}
			x := randomComplexSignal(rand.New(rand.NewSource(1)), m)
			a := make([]complex128, p.Size())
			dst := make([]complex128, 512)
			for b.Loop() {
				copy(a, x)
				clear(a[m:])
				p.Forward(a)
				p.Evaluate(dst, a, 1)
			}
		})
	}
}
