package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The frozen* functions below are the radix-2 kernel as it stood before the
// per-stage twiddle layout, the branch-free butterfly and the zero-padded
// prefix entry point — copied verbatim apart from their names and the plan
// type. They are the oracle that licenses those restructurings: every
// transform must return the same bits, except that an exact zero may differ
// in its sign (see sameBits).

type frozenFFTPlan struct {
	n       int
	twiddle []complex128 // exp(-2πi k/n) for k in [0, n/2)
	rev     []int
}

func frozenNewFFTPlan(n int) *frozenFFTPlan {
	p := &frozenFFTPlan{n: n}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		shift = 64
	}
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return p
}

func (p *frozenFFTPlan) execute(a []complex128, inverse bool) {
	n := p.n
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				t := w * a[k+half]
				a[k+half] = a[k] - t
				a[k] = a[k] + t
				tw += step
			}
		}
	}
}

func (p *frozenFFTPlan) forward(src []complex128) []complex128 {
	dst := append([]complex128(nil), src...)
	p.execute(dst, false)
	return dst
}

func (p *frozenFFTPlan) inverse(src []complex128) []complex128 {
	dst := append([]complex128(nil), src...)
	p.execute(dst, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
	return dst
}

// frozenRealForward and frozenRealInverse are RealFFTPlan.ForwardInto and
// InverseInto over the frozen half-size plan; their untwiddle steps are
// unchanged and are frozen only so the oracle pins the whole path.
func frozenRealForward(n int, src []float64) []complex128 {
	half := frozenNewFFTPlan(n / 2)
	tw := frozenRealTwiddles(n)
	m := n / 2
	dst := make([]complex128, m+1)
	z := dst[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	half.execute(z, false)
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; 2*k <= m; k++ {
		zk, zj := dst[k], dst[m-k]
		xe := complex(0.5*(real(zk)+real(zj)), 0.5*(imag(zk)-imag(zj)))
		xo := complex(0.5*(imag(zk)+imag(zj)), 0.5*(real(zj)-real(zk)))
		t := tw[k] * xo
		hk := xe + t
		hj := complex(real(xe)-real(t), -(imag(xe) - imag(t)))
		dst[k] = hk
		if m-k != k {
			dst[m-k] = hj
		}
	}
	return dst
}

func frozenRealInverse(n int, spec []complex128) []float64 {
	half := frozenNewFFTPlan(n / 2)
	tw := frozenRealTwiddles(n)
	m := n / 2
	src := append([]complex128(nil), spec...)
	dst := make([]float64, n)
	h0, hm := src[0], src[m]
	src[0] = complex(0.5*(real(h0)+real(hm)), 0.5*(real(h0)-real(hm)))
	for k := 1; 2*k <= m; k++ {
		hk, hj := src[k], src[m-k]
		xe := complex(0.5*(real(hk)+real(hj)), 0.5*(imag(hk)-imag(hj)))
		d := complex(0.5*(real(hk)-real(hj)), 0.5*(imag(hk)+imag(hj)))
		w := tw[k]
		xo := complex(real(w)*real(d)+imag(w)*imag(d), real(w)*imag(d)-imag(w)*real(d))
		src[k] = complex(real(xe)-imag(xo), imag(xe)+real(xo))
		if m-k != k {
			src[m-k] = complex(real(xe)+imag(xo), -imag(xe)+real(xo))
		}
	}
	z := src[:m]
	half.execute(z, true)
	scale := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j]) * scale
		dst[2*j+1] = imag(z[j]) * scale
	}
	return dst
}

func frozenRealTwiddles(n int) []complex128 {
	tw := make([]complex128, n/4+1)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return tw
}

// sameBits reports whether got and want carry identical float64 bits, or
// are both exact zeros: skipping a butterfly that only adds w·0 can flip
// the sign of a zero, and nothing else.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
}

func assertSameComplex(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
			t.Fatalf("%s: bin %d = %v, frozen kernel %v", what, k, got[k], want[k])
		}
	}
}

func assertSameReal(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("%s: sample %d = %v, frozen kernel %v", what, k, got[k], want[k])
		}
	}
}

// oracleSignals returns the inputs of size n the oracle feeds every entry
// point: Hann-windowed complex noise zero-padded after each prefix length
// in prefixLengths(n), an impulse at every few positions, and a denormal
// vector. Each comes with its prefix length (the index past which it is
// zero).
func oracleSignals(rng *rand.Rand, n int) (xs [][]complex128, ms []int) {
	for _, m := range prefixLengths(rng, n) {
		x := make([]complex128, n)
		w := Hann(m)
		for k := 0; k < m; k++ {
			x[k] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(w[k], 0)
		}
		xs, ms = append(xs, x), append(ms, m)
	}
	for _, pos := range []int{0, 1, n / 2, n - 1} {
		x := make([]complex128, n)
		x[pos] = complex(1, -0.5)
		xs, ms = append(xs, x), append(ms, pos+1)
	}
	den := make([]complex128, n)
	for k := range den {
		den[k] = complex(5e-324*float64(k%7), -1e-310*float64(k%3))
	}
	xs, ms = append(xs, den), append(ms, n)
	return xs, ms
}

// prefixLengths is every m in [1, n] for small n; for larger n it keeps
// every power of two, its neighbours, n/2 and a few random lengths, so the
// whole oracle stays well under a second.
func prefixLengths(rng *rand.Rand, n int) []int {
	if n <= 256 {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = i + 1
		}
		return ms
	}
	var ms []int
	for p := 1; p <= n; p <<= 1 {
		ms = append(ms, p)
		if p > 2 {
			ms = append(ms, p-1, p+1)
		}
	}
	ms = append(ms, n/2, n/2+1, n-1)
	for range 6 {
		ms = append(ms, 1+rng.Intn(n))
	}
	var out []int
	for _, m := range ms {
		if m >= 1 && m <= n {
			out = append(out, m)
		}
	}
	return out
}

// TestFFTMatchesFrozenKernel pins ForwardInto, ForwardPrefix, InverseInto
// and both RealFFTPlan directions against the frozen kernel, bit for bit,
// for every power-of-two size from 2 to 8192.
func TestFFTMatchesFrozenKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 2; n <= 8192; n <<= 1 {
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		frozen := frozenNewFFTPlan(n)
		rplan, err := NewRealFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		xs, ms := oracleSignals(rng, n)
		got := make([]complex128, n)
		for i, x := range xs {
			plan.ForwardInto(got, x)
			assertSameComplex(t, sprintCase("ForwardInto", n, ms[i]), got, frozen.forward(x))
			copy(got, x)
			plan.ForwardPrefix(got, ms[i])
			assertSameComplex(t, sprintCase("ForwardPrefix", n, ms[i]), got, frozen.forward(x))
			plan.InverseInto(got, x)
			assertSameComplex(t, sprintCase("InverseInto", n, ms[i]), got, frozen.inverse(x))

			re := make([]float64, n)
			for k, v := range x {
				re[k] = real(v) + imag(v)
			}
			spec := make([]complex128, rplan.SpectrumLen())
			rplan.ForwardInto(spec, re)
			want := frozenRealForward(n, re)
			assertSameComplex(t, sprintCase("RealFFTPlan.ForwardInto", n, ms[i]), spec, want)
			back := make([]float64, n)
			rplan.InverseInto(back, append([]complex128(nil), want...))
			assertSameReal(t, sprintCase("RealFFTPlan.InverseInto", n, ms[i]), back, frozenRealInverse(n, want))
		}
	}
}

// TestFFTPrefixEdgeCases covers the prefix lengths the signal sweep cannot
// reach: m = 0 (an all-zero input) and the size-1 plan. It also runs the
// impulse through every stage with ForwardInto: n = 2, 8 and 2048 have an
// odd stage count, so their paired stages end on a lone radix-2 stage.
func TestFFTPrefixEdgeCases(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 2048} {
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]complex128, n)
		plan.ForwardPrefix(a, 0)
		for k, v := range a {
			if v != 0 {
				t.Fatalf("n=%d m=0: bin %d = %v, want 0", n, k, v)
			}
		}
		a[0] = 3 - 4i
		plan.ForwardPrefix(a, 1)
		for k, v := range a {
			if v != 3-4i {
				t.Fatalf("n=%d impulse: bin %d = %v, want 3-4i", n, k, v)
			}
		}
		clear(a)
		a[0] = 3 - 4i
		plan.ForwardInto(a, a)
		for k, v := range a {
			if v != 3-4i {
				t.Fatalf("n=%d impulse, all stages: bin %d = %v, want 3-4i", n, k, v)
			}
		}
	}
}

// TestBitReversePrefix checks the swap list's prefixes: for every power of
// two s ≤ n, bitReverse(a, s) on an input that is zero past s must place
// each a[i] at the reversal of i's index bits, as the full permutation
// does.
func TestBitReversePrefix(t *testing.T) {
	for n := 1; n <= 8192; n <<= 1 {
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		logn := bits.Len(uint(n)) - 1
		a := make([]complex128, n)
		for s := 1; s <= n; s <<= 1 {
			clear(a)
			for i := range s {
				a[i] = complex(float64(i+1), 0)
			}
			plan.bitReverse(a, s)
			for i, v := range a {
				want := 0.0
				if j := int(bits.Reverse64(uint64(i)) >> (64 - logn)); j < s {
					want = float64(j + 1)
				}
				if v != complex(want, 0) {
					t.Fatalf("n=%d s=%d: a[%d] = %v, want %v", n, s, i, v, want)
				}
			}
		}
	}
}

func sprintCase(entry string, n, m int) string {
	return fmt.Sprintf("%s n=%d m=%d", entry, n, m)
}
