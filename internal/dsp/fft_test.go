package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func complexApproxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func randomComplexSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 1024: true, 1023: false, 1 << 20: true,
	}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	NextPowerOfTwo(0)
}

func TestNewFFTPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -8, 3, 6, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d): expected error", n)
		}
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randomComplexSignal(rng, n)
		got := FFT(x)
		want := DFT(x)
		for k := range want {
			if !complexApproxEq(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d bin %d: FFT=%v DFT=%v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 128, 1024} {
		x := randomComplexSignal(rng, n)
		y := IFFT(FFT(x))
		for i := range x {
			if !complexApproxEq(x[i], y[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (1 + sizeSel%9) // 2..512
		local := rand.New(rand.NewSource(seed))
		x := randomComplexSignal(local, n)
		y := IFFT(FFT(x))
		for i := range x {
			if !complexApproxEq(x[i], y[i], 1e-8*float64(n)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		a := randomComplexSignal(rng, n)
		b := randomComplexSignal(rng, n)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for k := range fs {
			if !complexApproxEq(fs[k], fa[k]+alpha*fb[k], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 512
	x := randomComplexSignal(rng, n)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	var freqEnergy float64
	for _, v := range FFT(x) {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= n
	if !approxEq(timeEnergy, freqEnergy, 1e-6*timeEnergy) {
		t.Fatalf("Parseval violated: time %v freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTPureTonePeak(t *testing.T) {
	const n = 1024
	const fs = 1e6
	const bin = 100
	freq := float64(bin) * fs / n
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * freq * float64(i) / fs
		x[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	mags := Magnitudes(FFT(x))
	idx, _ := MaxIndex(mags)
	if idx != bin {
		t.Fatalf("tone at bin %d detected at %d", bin, idx)
	}
}

func TestFFTRealOfRealSignalHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 256
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := FFTReal(x)
	for k := 1; k < n/2; k++ {
		conj := complex(real(spec[n-k]), -imag(spec[n-k]))
		if !complexApproxEq(spec[k], conj, 1e-8) {
			t.Fatalf("bin %d not Hermitian-symmetric: %v vs %v", k, spec[k], conj)
		}
	}
}

func TestForwardIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 64
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := randomComplexSignal(rng, n)
	want := plan.Forward(x)
	// In-place transform must give the same result.
	buf := append([]complex128(nil), x...)
	plan.ForwardInto(buf, buf)
	for i := range want {
		if !complexApproxEq(buf[i], want[i], 1e-9) {
			t.Fatalf("in-place bin %d: %v vs %v", i, buf[i], want[i])
		}
	}
}

func TestForwardIntoSizeMismatchPanics(t *testing.T) {
	plan, _ := NewFFTPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	plan.ForwardInto(make([]complex128, 8), make([]complex128, 4))
}

func TestBinFrequencyRoundTrip(t *testing.T) {
	const n = 256
	const fs = 48000.0
	for bin := 0; bin < n; bin++ {
		f := BinFrequency(bin, n, fs)
		back := (int(math.Round(f*n/fs)) + n) % n
		if back != bin {
			t.Fatalf("bin %d -> %v Hz -> bin %d", bin, f, back)
		}
	}
}

func TestBinFrequencyNegativeHalf(t *testing.T) {
	const n = 8
	const fs = 800.0
	if f := BinFrequency(7, n, fs); !approxEq(f, -100, 1e-9) {
		t.Fatalf("bin 7 of 8 at fs=800 should be -100 Hz, got %v", f)
	}
	if f := BinFrequency(1, n, fs); !approxEq(f, 100, 1e-9) {
		t.Fatalf("bin 1 of 8 at fs=800 should be 100 Hz, got %v", f)
	}
}

func TestMagnitudesInto(t *testing.T) {
	spec := []complex128{3 + 4i, 0, -5i}
	dst := make([]float64, 3)
	MagnitudesInto(dst, spec)
	want := []float64{5, 0, 5}
	for i := range want {
		if !approxEq(dst[i], want[i], 1e-12) {
			t.Fatalf("bin %d: got %v want %v", i, dst[i], want[i])
		}
	}
}

// BenchmarkFFT1024 times the 1024-point kernel: "forward" is ForwardInto,
// and "inverse" (unnormalized) and "prefix" (m = 240 live samples) are the
// two transforms a chirp-z row of the IF correction runs.
func BenchmarkFFT1024(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(7))
	x := randomComplexSignal(rng, n)
	plan, _ := NewFFTPlan(n)
	a := make([]complex128, n)
	b.Run("forward", func(b *testing.B) {
		for b.Loop() {
			plan.ForwardInto(a, x)
		}
	})
	b.Run("inverse", func(b *testing.B) {
		for b.Loop() {
			copy(a, x)
			plan.execute(a, true)
		}
	})
	const m = 240
	b.Run(fmt.Sprintf("prefix/m=%d", m), func(b *testing.B) {
		for b.Loop() {
			copy(a, x[:m])
			clear(a[m:])
			plan.ForwardPrefix(a, m)
		}
	})
}

func BenchmarkFFT8192(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomComplexSignal(rng, 8192)
	plan, _ := NewFFTPlan(8192)
	dst := make([]complex128, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ForwardInto(dst, x)
	}
}

// BenchmarkFFT4096 times the 4096-point transform RawRangeProfile runs for
// Fig. 7's per-chirp range readings, at the IF sample counts of 20–100 µs
// chirps at 4 MHz (m = 80, 240, 400) and unpadded (m = 4096): "frozen" is
// the kernel before the prefix entry point, which always transforms all n
// points, "prefix" is ForwardPrefix. A round's range stage runs the 1024-
// point chirp-z transform instead (BenchmarkChirpZ).
func BenchmarkFFT4096(b *testing.B) {
	const n = 4096
	plan, _ := NewFFTPlan(n)
	frozen := frozenNewFFTPlan(n)
	rng := rand.New(rand.NewSource(9))
	a := make([]complex128, n)
	for _, m := range []int{80, 240, 400, n} {
		x := make([]complex128, n)
		copy(x, randomComplexSignal(rng, m))
		b.Run(fmt.Sprintf("m=%d/frozen", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, x)
				frozen.execute(a, false)
			}
		})
		b.Run(fmt.Sprintf("m=%d/prefix", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, x)
				plan.ForwardPrefix(a, m)
			}
		})
	}
}

// TestFFTPrefixAllocFree pins the range-FFT entry point to zero heap
// allocations per call.
func TestFFTPrefixAllocFree(t *testing.T) {
	plan, err := NewFFTPlan(4096)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]complex128, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		clear(a[240:])
		plan.ForwardPrefix(a, 240)
	})
	if allocs != 0 {
		t.Fatalf("ForwardPrefix allocates %v times per call, want 0", allocs)
	}
}
