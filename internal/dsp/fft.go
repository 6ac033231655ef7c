// Package dsp provides the digital signal processing substrate used by the
// BiScatter simulator: FFTs, the chirp-z transform, the Goertzel algorithm,
// window functions, moving-average smoothing, interpolation,
// autocorrelation and CFAR.
//
// Everything is implemented on plain []complex128 / []float64 slices with no
// external dependencies. Functions that allocate have Into-variants that
// reuse caller-provided buffers so hot loops (per-chirp processing) can run
// without garbage.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics for n <= 0
// or when the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic("dsp: NextPowerOfTwo overflow")
	}
	return p
}

// FFTPlan caches the twiddle factors and the bit-reversal swaps for a
// fixed power-of-two transform size. A plan is safe for concurrent use
// because no transform mutates plan state.
type FFTPlan struct {
	n int
	// tw holds the twiddles stage by stage: the stage of half-width h reads
	// tw[h-1 : 2h-1], where tw[h-1+k] = exp(-2πi k/2h). The last stage's
	// segment is the full table exp(-2πi k/n) for k in [0, n/2); every
	// earlier segment copies entry k·n/2h of it rather than evaluating its
	// own angle, so each stage reads contiguous values that are bit for
	// bit those of a strided walk over the full table.
	tw []complex128
	// swaps lists the bit-reversal pairs flat, i then j for each i < j =
	// reverse(i), in increasing i; swapEnd[b] is the length of the prefix
	// of swaps whose i lies below 2^b.
	swaps   []uint32
	swapEnd []int
}

// NewFFTPlan builds a plan for transforms of size n (a power of two).
func NewFFTPlan(n int) (*FFTPlan, error) {
	if !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two", n)
	}
	p := &FFTPlan{n: n}
	p.tw = make([]complex128, n-1)
	last := p.tw[max(n/2-1, 0):] // empty for n = 1
	for k := range last {
		ang := -2 * math.Pi * float64(k) / float64(n)
		last[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	for h := 1; h < n/2; h <<= 1 {
		step := n / (2 * h)
		seg := p.tw[h-1 : 2*h-1]
		for k := range seg {
			seg[k] = last[k*step]
		}
	}
	logn := bits.Len(uint(n)) - 1
	p.swaps = make([]uint32, 0, n-(1<<((logn+1)/2)))
	p.swapEnd = make([]int, logn+1)
	for i := range n {
		if i > 0 && IsPowerOfTwo(i) {
			p.swapEnd[bits.Len(uint(i))-1] = len(p.swaps)
		}
		if j := int(bits.Reverse64(uint64(i)) >> (64 - logn)); i < j {
			p.swaps = append(p.swaps, uint32(i), uint32(j))
		}
	}
	p.swapEnd[logn] = len(p.swaps)
	return p, nil
}

// planCache holds one FFTPlan per transform size. CSSK frames mix chirp
// durations, so the tag decoder and the slow-time processors request many
// different (but recurring) power-of-two sizes per frame; caching the
// twiddle tables removes that recomputation from the per-chirp hot path.
// Plans are immutable after construction, so a cached plan is safe to share
// across worker goroutines.
var planCache sync.Map // int → *FFTPlan

// PlanFor returns the cached plan for transforms of size n (a power of
// two), building and caching it on first use.
func PlanFor(n int) (*FFTPlan, error) {
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan), nil
}

// Forward computes the forward DFT of src into a newly allocated slice.
// len(src) must equal the plan size.
//
// Test/oracle use only: every production caller goes through ForwardInto
// with caller-owned scratch so the per-chirp hot loops stay allocation-free.
// Keep this wrapper for tests and one-off tooling.
func (p *FFTPlan) Forward(src []complex128) []complex128 {
	dst := make([]complex128, p.n)
	p.ForwardInto(dst, src)
	return dst
}

// ForwardInto computes the forward DFT of src into dst. dst and src must both
// have the plan size; they may alias.
func (p *FFTPlan) ForwardInto(dst, src []complex128) {
	if len(src) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("dsp: FFT size mismatch: plan %d, src %d, dst %d", p.n, len(src), len(dst)))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.execute(dst, false)
}

// InverseInto computes the inverse DFT (with 1/n normalization) of src into
// dst. dst and src may alias.
func (p *FFTPlan) InverseInto(dst, src []complex128) {
	if len(src) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("dsp: FFT size mismatch: plan %d, src %d, dst %d", p.n, len(src), len(dst)))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.execute(dst, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
}

// ForwardPrefix computes the forward DFT of a in place when only its first
// m samples can be non-zero: a must have the plan size, and a[m:] must be
// zero — the caller's contract, not checked. With s = NextPowerOfTwo(m) and
// L = n/s, bit reversal moves the s live inputs to multiples of L, and the
// first log2 L stages would only add w·0 to them, so each is broadcast over
// its block of L instead and the stages resume at half-width L. Every
// non-zero output carries the same bits as ForwardInto; an exact zero may
// differ in its sign.
func (p *FFTPlan) ForwardPrefix(a []complex128, m int) {
	if len(a) != p.n || m < 0 || m > p.n {
		panic(fmt.Sprintf("dsp: FFT prefix mismatch: plan %d, len %d, prefix %d", p.n, len(a), m))
	}
	s := NextPowerOfTwo(max(m, 1))
	L := p.n / s
	p.bitReverse(a, s)
	for b := 0; b < p.n; b += L {
		blk := a[b : b+L]
		v := blk[0]
		for k := range blk {
			blk[k] = v
		}
	}
	p.stages(a, L, false)
}

// execute runs the in-place iterative Cooley-Tukey transform.
func (p *FFTPlan) execute(a []complex128, inverse bool) {
	p.bitReverse(a, p.n)
	p.stages(a, 1, inverse)
}

// bitReverse applies the plan's bit-reversal permutation to a for the
// indices below s, a power of two: it walks the prefix of the swap list
// whose i lies below s. With s = n that is the whole permutation; a smaller
// s is complete when a[s:] is zero, because every swap it skips exchanges
// two zeros.
func (p *FFTPlan) bitReverse(a []complex128, s int) {
	sw := p.swaps[:p.swapEnd[bits.Len(uint(s))-1]]
	for ; len(sw) >= 2; sw = sw[2:] {
		x, y := &a[sw[0]], &a[sw[1]]
		*x, *y = *y, *x
	}
}

// stages runs the butterfly stages of half-width h0, 2·h0, …, n/2 over a,
// which must already be in bit-reversed order. Stages run in pairs
// (radix-2²): one pass over each block of 4h applies the stage of
// half-width h to both its halves and then the stage of half-width 2h to
// the whole block, holding the four values of each k in registers. Every
// butterfly keeps the radix-2 form t := w·x; lo+t; lo−t with the twiddle
// its own stage reads, so the output carries the same bits as one pass per
// stage. When the stage count is odd, the last stage runs alone. The
// inverse conjugates each twiddle exactly as the forward reads it, in its
// own loop body, so no loop branches per butterfly.
func (p *FFTPlan) stages(a []complex128, h0 int, inverse bool) {
	n := p.n
	h := h0
	for ; 4*h <= n; h <<= 2 {
		tw1 := p.tw[h-1 : 2*h-1]
		tw2 := p.tw[2*h-1 : 4*h-1]
		for s := 0; s < n; s += 4 * h {
			a0 := a[s : s+h]
			a1 := a[s+h : s+2*h]
			a2 := a[s+2*h : s+3*h]
			a3 := a[s+3*h : s+4*h]
			a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
			w1s, w2s, w3s := tw1[:len(a0)], tw2[:len(a0)], tw2[h:][:len(a0)]
			if inverse {
				for k, w1 := range w1s {
					w1 = complex(real(w1), -imag(w1))
					w2, w3 := w2s[k], w3s[k]
					w2 = complex(real(w2), -imag(w2))
					w3 = complex(real(w3), -imag(w3))
					x0, x2 := a0[k], a2[k]
					t := w1 * a1[k]
					y0, y1 := x0+t, x0-t
					t = w1 * a3[k]
					y2, y3 := x2+t, x2-t
					t = w2 * y2
					a0[k], a2[k] = y0+t, y0-t
					t = w3 * y3
					a1[k], a3[k] = y1+t, y1-t
				}
			} else {
				for k, w1 := range w1s {
					w2, w3 := w2s[k], w3s[k]
					x0, x2 := a0[k], a2[k]
					t := w1 * a1[k]
					y0, y1 := x0+t, x0-t
					t = w1 * a3[k]
					y2, y3 := x2+t, x2-t
					t = w2 * y2
					a0[k], a2[k] = y0+t, y0-t
					t = w3 * y3
					a1[k], a3[k] = y1+t, y1-t
				}
			}
		}
	}
	if h < n {
		tw := p.tw[h-1 : 2*h-1]
		for s := 0; s < n; s += 2 * h {
			lo := a[s : s+h]
			hi := a[s+h : s+2*h]
			hi, tw := hi[:len(lo)], tw[:len(lo)]
			if inverse {
				for k, w := range tw {
					t := complex(real(w), -imag(w)) * hi[k]
					hi[k] = lo[k] - t
					lo[k] = lo[k] + t
				}
			} else {
				for k, w := range tw {
					t := w * hi[k]
					hi[k] = lo[k] - t
					lo[k] = lo[k] + t
				}
			}
		}
	}
}

// FFT computes the forward DFT of src, zero-padding to the next power of two
// when necessary. The returned slice length is NextPowerOfTwo(len(src)).
func FFT(src []complex128) []complex128 {
	n := NextPowerOfTwo(len(src))
	plan, err := PlanFor(n)
	if err != nil {
		panic(err) // unreachable: n is a power of two
	}
	buf := make([]complex128, n)
	copy(buf, src)
	plan.execute(buf, false)
	return buf
}

// IFFT computes the normalized inverse DFT of src. len(src) must be a power
// of two.
func IFFT(src []complex128) []complex128 {
	plan, err := PlanFor(len(src))
	if err != nil {
		panic(err)
	}
	dst := make([]complex128, len(src))
	plan.InverseInto(dst, src)
	return dst
}

// FFTReal transforms a real-valued signal, zero-padding to the next power of
// two, and returns the full complex spectrum.
func FFTReal(src []float64) []complex128 {
	buf := make([]complex128, NextPowerOfTwo(len(src)))
	for i, v := range src {
		buf[i] = complex(v, 0)
	}
	plan, err := PlanFor(len(buf))
	if err != nil {
		panic(err)
	}
	plan.execute(buf, false)
	return buf
}

// DFT computes the discrete Fourier transform by direct O(n²) evaluation.
// It exists as a correctness oracle for FFT tests and for tiny non-power-of-
// two sizes; do not use it in hot paths.
func DFT(src []complex128) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += src[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = acc
	}
	return out
}

// Magnitudes returns |spec[i]| for every bin.
func Magnitudes(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, c := range spec {
		out[i] = math.Hypot(real(c), imag(c))
	}
	return out
}

// MagnitudesInto writes |spec[i]| into dst, which must have the same length.
func MagnitudesInto(dst []float64, spec []complex128) {
	if len(dst) != len(spec) {
		panic("dsp: MagnitudesInto length mismatch")
	}
	for i, c := range spec {
		dst[i] = math.Hypot(real(c), imag(c))
	}
}

// BinFrequency converts an FFT bin index to the frequency in Hz for a
// transform of size n over samples taken at rate fs. Bins above n/2 map to
// negative frequencies.
func BinFrequency(bin, n int, fs float64) float64 {
	if bin > n/2 {
		bin -= n
	}
	return float64(bin) * fs / float64(n)
}
