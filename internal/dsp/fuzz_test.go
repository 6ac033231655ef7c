package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSignal deals raw fuzz bytes out as float64 samples. Lengths are
// arbitrary — zero, odd, one off a power of two — and values include NaN,
// infinities, denormals, and saturated magnitudes.
func fuzzSignal(data []byte) []float64 {
	x := make([]float64, len(data)/8)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return x
}

func seedBytes(x []float64) []byte {
	out := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func finiteBounded(x []float64, bound float64) (float64, bool) {
	maxAbs := 0.0
	for _, v := range x {
		if !(math.Abs(v) <= bound) { // catches NaN too
			return 0, false
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, true
}

// FuzzRealFFT feeds arbitrary signals — any length, any float64 bit
// pattern — through the real-FFT fast path. The transform must never panic;
// for finite, magnitude-bounded inputs the Forward→Inverse round trip must
// reproduce the (padded) signal and the half-spectrum must agree with the
// full complex FFT.
func FuzzRealFFT(f *testing.F) {
	f.Add([]byte{})                                           // zero length
	f.Add(seedBytes([]float64{1}))                            // length 1
	f.Add(seedBytes(make([]float64, 7)))                      // pow2 − 1
	f.Add(seedBytes([]float64{1, -2, 3, -4, 5, -6, 7, -8}))   // exact pow2
	f.Add(seedBytes(make([]float64, 9)))                      // pow2 + 1
	f.Add(seedBytes([]float64{5e-324, -5e-324, 1e-310, 0}))   // denormals
	f.Add(seedBytes([]float64{1e308, -1e308, 1e300, -1e300})) // saturated
	f.Add(seedBytes([]float64{math.Inf(1), math.NaN(), math.Inf(-1)}))
	odd := make([]float64, 33) // odd-ish length above one radix-2 stage
	for i := range odd {
		odd[i] = math.Sin(float64(i))
	}
	f.Add(seedBytes(odd))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		x := fuzzSignal(data)
		if len(x) == 0 {
			return
		}
		n := max(NextPowerOfTwo(len(x)), 2)
		plan, err := RealPlanFor(n)
		if err != nil {
			t.Fatalf("RealPlanFor(%d): %v", n, err)
		}
		padded := make([]float64, n)
		copy(padded, x)
		spec := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(spec, padded) // must not panic for any values

		maxAbs, ok := finiteBounded(x, 1e150)
		if !ok {
			return // NaN/Inf/overflow-prone input: no-panic is the contract
		}
		// Half-spectrum vs full complex FFT. The 1e-300 floor absorbs the
		// fixed-quantum rounding of subnormal inputs, where relative
		// tolerances are meaningless.
		full := FFTReal(padded)
		scale := float64(n) * maxAbs // ≥ max spectrum magnitude
		for k := 0; k <= n/2; k++ {
			if d := math.Hypot(real(spec[k]-full[k]), imag(spec[k]-full[k])); d > 1e-10*scale+1e-300 {
				t.Fatalf("n=%d bin %d: rFFT %v, FFT %v", n, k, spec[k], full[k])
			}
		}
		// Round trip.
		back := make([]float64, n)
		plan.InverseInto(back, spec)
		for i := range padded {
			if math.Abs(back[i]-padded[i]) > 1e-10*maxAbs+1e-300 {
				t.Fatalf("n=%d sample %d: round trip %v, want %v", n, i, back[i], padded[i])
			}
		}
	})
}

// FuzzFFTPrefix checks the zero-padded entry point against the full
// transform: raw fuzz bytes become the complex prefix, padded by a fuzzed
// factor, and ForwardPrefix must match ForwardInto on every bin bit for bit
// (an exact zero may differ in sign). Inputs holding a NaN only have to not
// panic — a signalling NaN the full transform quiets can pass the prefix
// path's broadcast unchanged.
func FuzzFFTPrefix(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(seedBytes([]float64{1, -1}), uint8(3))
	f.Add(seedBytes([]float64{1, 2, 3, 4, 5, 6}), uint8(1))
	f.Add(seedBytes([]float64{5e-324, -5e-324, 1e-310, 0}), uint8(2))
	f.Add(seedBytes([]float64{math.Inf(1), 0, 1e308, -1e308}), uint8(4))
	f.Add(seedBytes([]float64{0, 0, 0, 0, 0, 0, 1, 1}), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, pad uint8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		x := fuzzSignal(data)
		m := len(x) / 2
		n := NextPowerOfTwo(max(m, 1)) << (pad % 6)
		plan, err := PlanFor(n)
		if err != nil {
			t.Fatalf("PlanFor(%d): %v", n, err)
		}
		src := make([]complex128, n)
		hasNaN := false
		for k := range m {
			src[k] = complex(x[2*k], x[2*k+1])
			hasNaN = hasNaN || math.IsNaN(x[2*k]) || math.IsNaN(x[2*k+1])
		}
		want := make([]complex128, n)
		plan.ForwardInto(want, src)
		got := append([]complex128(nil), src...)
		plan.ForwardPrefix(got, m) // must not panic for any values
		if hasNaN {
			return
		}
		for k := range want {
			if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
				t.Fatalf("n=%d m=%d bin %d: prefix %v, full %v", n, m, k, got[k], want[k])
			}
		}
	})
}

// FuzzGoertzelBin drives the single-bin demodulator with arbitrary signals
// and an arbitrary bin index. It must never panic; for finite bounded
// inputs at integer bins it must agree with the FFT bin power, and the
// hoisted-coefficient form must be bit-identical to the plain call.
func FuzzGoertzelBin(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), seedBytes([]float64{1}))
	f.Add(uint16(3), seedBytes(make([]float64, 7)))
	f.Add(uint16(2), seedBytes([]float64{1, -1, 1, -1, 1, -1, 1, -1}))
	f.Add(uint16(5), seedBytes(make([]float64, 9)))
	f.Add(uint16(1), seedBytes([]float64{5e-324, 1e-310, -5e-324, 0}))
	f.Add(uint16(7), seedBytes([]float64{1e154, -1e154, 1e150}))
	f.Add(uint16(9), seedBytes([]float64{math.NaN(), math.Inf(1)}))

	f.Fuzz(func(t *testing.T, bin uint16, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		x := fuzzSignal(data)
		const fs = 4e6
		n := max(NextPowerOfTwo(max(len(x), 1)), 2)
		k := int(bin) % (n/2 + 1)
		freq := float64(k) * fs / float64(n)

		c := NewGoertzelCoeff(freq, fs)
		a := Goertzel(x, freq, fs) // must not panic for any values
		b := GoertzelWith(x, c)
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("Goertzel %v != GoertzelWith %v", a, b)
		}

		maxAbs, ok := finiteBounded(x, 1e100)
		if !ok || len(x) == 0 || k == 0 {
			return
		}
		padded := make([]float64, n)
		copy(padded, x)
		spec := FFTReal(padded)
		want := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		got := GoertzelPower(padded, freq, fs)
		// The recurrence's intermediates can resonate up to ~n·maxAbs, so the
		// power comparison is smoke-level: it still catches wrong-bin and
		// wrong-finalization bugs, which shift power by O(1) fractions.
		lim := float64(n) * maxAbs
		if tol := 1e-9 * lim * lim; math.Abs(got-want) > tol {
			t.Fatalf("n=%d k=%d: Goertzel power %v, FFT bin power %v (tol %g)", n, k, got, want, tol)
		}
	})
}
