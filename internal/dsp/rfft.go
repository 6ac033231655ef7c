package dsp

import (
	"fmt"
	"math"
	"sync"
)

// RealFFTPlan transforms real-valued signals of a fixed power-of-two size n
// through a complex FFT of size n/2: the even/odd samples are packed into
// the real/imaginary lanes of one half-size complex signal, transformed, and
// untwiddled into the packed half-spectrum H[0..n/2]. For a real input the
// upper half of the full spectrum is the conjugate mirror of the lower half,
// so the half-spectrum carries everything at roughly half the flops and half
// the memory traffic of FFTReal — exactly the asymmetry the radar IF chain
// and the tag's real ADC captures leave on the table with a complex FFT.
//
// A plan is immutable after construction and safe for concurrent use; the
// transform scratch lives in the caller's dst buffer.
type RealFFTPlan struct {
	n    int
	half *FFTPlan     // complex plan of size n/2
	tw   []complex128 // exp(-2πi k/n) for k in [0, n/4]
}

// NewRealFFTPlan builds a plan for real transforms of size n (a power of
// two, at least 2).
func NewRealFFTPlan(n int) (*RealFFTPlan, error) {
	if !IsPowerOfTwo(n) || n < 2 {
		return nil, fmt.Errorf("dsp: real FFT size %d is not a power of two >= 2", n)
	}
	half, err := NewFFTPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RealFFTPlan{n: n, half: half}
	p.tw = make([]complex128, n/4+1)
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p, nil
}

// SpectrumLen returns the packed half-spectrum length n/2 + 1.
func (p *RealFFTPlan) SpectrumLen() int { return p.n/2 + 1 }

// realPlanCache mirrors planCache for real transforms: one immutable plan
// per size, shared across workers.
var realPlanCache sync.Map // int → *RealFFTPlan

// RealPlanFor returns the cached real-FFT plan for size n (a power of two),
// building and caching it on first use.
func RealPlanFor(n int) (*RealFFTPlan, error) {
	if p, ok := realPlanCache.Load(n); ok {
		return p.(*RealFFTPlan), nil
	}
	p, err := NewRealFFTPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := realPlanCache.LoadOrStore(n, p)
	return actual.(*RealFFTPlan), nil
}

// ForwardInto computes the packed half-spectrum of the real signal src into
// dst: dst[k] equals FFT(src)[k] for k in [0, n/2]; bins above n/2 are the
// conjugate mirror and are not stored. len(src) must be the plan size and
// len(dst) must be SpectrumLen(). dst doubles as the working buffer, so no
// other scratch is needed; src is not modified.
func (p *RealFFTPlan) ForwardInto(dst []complex128, src []float64) {
	m := p.n / 2
	if len(src) != p.n || len(dst) != m+1 {
		panic(fmt.Sprintf("dsp: real FFT size mismatch: plan %d, src %d, dst %d", p.n, len(src), len(dst)))
	}
	// Pack adjacent sample pairs into one half-size complex signal.
	z := dst[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.execute(z, false)
	// Untwiddle: with Z = FFT(z), the even/odd sub-spectra are
	//   Xe[k] = (Z[k] + conj(Z[m−k]))/2,  Xo[k] = −i·(Z[k] − conj(Z[m−k]))/2
	// and H[k] = Xe[k] + e^{−2πik/n}·Xo[k]. Indices k and m−k exchange
	// conjugate roles, so the loop rewrites both ends of dst in place.
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; 2*k <= m; k++ {
		zk, zj := dst[k], dst[m-k]
		xe := complex(0.5*(real(zk)+real(zj)), 0.5*(imag(zk)-imag(zj)))
		xo := complex(0.5*(imag(zk)+imag(zj)), 0.5*(real(zj)-real(zk)))
		t := p.tw[k] * xo
		hk := xe + t
		hj := complex(real(xe)-real(t), -(imag(xe) - imag(t)))
		dst[k] = hk
		if m-k != k {
			dst[m-k] = hj
		}
	}
}

// InverseInto reconstructs the real signal (with 1/n normalization) from a
// packed half-spectrum: dst[i] = IFFT(H_full)[i] where H_full mirrors src
// conjugate-symmetrically. len(dst) must be the plan size and len(src) must
// be SpectrumLen(). src is consumed as the working buffer — its contents
// are overwritten — so round trips need no extra scratch.
func (p *RealFFTPlan) InverseInto(dst []float64, src []complex128) {
	m := p.n / 2
	if len(dst) != p.n || len(src) != m+1 {
		panic(fmt.Sprintf("dsp: real FFT size mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
	// Retwiddle the half-spectrum back into the packed complex signal:
	// Z[k] = Xe[k] + i·Xo[k] with Xe[k] = (H[k] + conj(H[m−k]))/2 and
	// Xo[k] = e^{+2πik/n}·(H[k] − conj(H[m−k]))/2.
	h0, hm := src[0], src[m]
	src[0] = complex(0.5*(real(h0)+real(hm)), 0.5*(real(h0)-real(hm)))
	for k := 1; 2*k <= m; k++ {
		hk, hj := src[k], src[m-k]
		xe := complex(0.5*(real(hk)+real(hj)), 0.5*(imag(hk)-imag(hj)))
		d := complex(0.5*(real(hk)-real(hj)), 0.5*(imag(hk)+imag(hj)))
		w := p.tw[k] // conj(e^{+2πik/n}) — conjugate once below
		xo := complex(real(w)*real(d)+imag(w)*imag(d), real(w)*imag(d)-imag(w)*real(d))
		src[k] = complex(real(xe)-imag(xo), imag(xe)+real(xo))
		if m-k != k {
			src[m-k] = complex(real(xe)+imag(xo), -imag(xe)+real(xo))
		}
	}
	z := src[:m]
	p.half.execute(z, true)
	scale := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j]) * scale
		dst[2*j+1] = imag(z[j]) * scale
	}
}
