package dsp

import (
	"fmt"
	"math"
	"sync"
)

// ChirpZPlan evaluates the DTFT of an m-sample sequence x at the bins
// frequencies f_j = j·delta cycles per sample by Bluestein's chirp-z
// algorithm. With n·j = (n² + j² − (j−n)²)/2 and q_k = e^{−iπ·delta·k²},
//
//	X_j = Σ_n x_n e^{−2πi·delta·n·j} = q_j · Σ_n (x_n q_n) · conj(q_{j−n}),
//
// a convolution with the even kernel conj(q_k), which reads it at lags
// −(m−1)…bins−1. One circular convolution of size N computes it exactly
// when N/2 covers every lag: N = NextPowerOfTwo(2·max(m, bins)−2), 1024 for
// 512 bins and up to 513 samples. The steps are a forward FFT of the
// premultiplied samples, a pointwise product with the kernel spectrum, an
// inverse FFT and bins output twiddles q_j. The DTFT is periodic, so
// frequencies beyond one cycle per sample wrap.
//
// A plan holds q and the kernel spectrum. The circular kernel is even, so
// its spectrum is too, and the plan keeps bins 0…N/2 of it. A plan is
// immutable after construction, so it is safe to share across goroutines.
type ChirpZPlan struct {
	m, bins int
	fft     *FFTPlan
	q       []complex128 // q[k] = e^{−iπ·delta·k²} for k < max(m, bins)
	kern    []complex128 // kernel spectrum, bins 0…N/2; bin N−k equals bin k
}

// chirpZKey identifies a plan: its tables depend only on these three.
type chirpZKey struct {
	m, bins int
	delta   float64
}

// chirpZCache holds one ChirpZPlan per (m, bins, delta), shared by every
// caller in the process as planCache shares FFT plans.
var chirpZCache sync.Map // chirpZKey → *ChirpZPlan

// ChirpZFor returns the cached plan for m input samples evaluated at bins
// frequencies spaced delta cycles per sample, building and caching it on
// first use.
func ChirpZFor(m, bins int, delta float64) (*ChirpZPlan, error) {
	key := chirpZKey{m, bins, delta}
	if p, ok := chirpZCache.Load(key); ok {
		return p.(*ChirpZPlan), nil
	}
	if m < 1 || bins < 1 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("dsp: chirp-z needs m, bins ≥ 1 and a finite spacing, got m=%d bins=%d delta=%v", m, bins, delta)
	}
	fft, err := PlanFor(NextPowerOfTwo(max(2*max(m, bins)-2, 1)))
	if err != nil {
		return nil, err
	}
	// chirp returns e^{−iπ·delta·k²}. k² is exact and the reduction modulo
	// 2 is exact, so the angle carries only the product's rounding,
	// however large k grows.
	chirp := func(k int) complex128 {
		kk := float64(k) * float64(k)
		s, c := math.Sincos(math.Pi * math.Mod(delta*kk, 2))
		return complex(c, -s)
	}
	q := make([]complex128, max(m, bins))
	for k := range q {
		q[k] = chirp(k)
	}
	n := fft.n
	kern := make([]complex128, n)
	for k := 0; k <= n/2; k++ {
		c := chirp(k)
		kern[k] = complex(real(c), -imag(c))
		kern[(n-k)%n] = kern[k]
	}
	fft.ForwardInto(kern, kern)
	p := &ChirpZPlan{m: m, bins: bins, fft: fft, q: q, kern: append([]complex128(nil), kern[:n/2+1]...)}
	actual, _ := chirpZCache.LoadOrStore(key, p)
	return actual.(*ChirpZPlan), nil
}

// Size returns N, the length of the work buffer Forward and Evaluate take.
func (p *ChirpZPlan) Size() int { return p.fft.n }

// Bytes returns the size of the plan's tables.
func (p *ChirpZPlan) Bytes() int { return 16 * (len(p.q) + len(p.kern)) }

// Forward premultiplies the m input samples in a by the chirp q and
// transforms a in place. a must have length Size() and be zero beyond its
// first m entries, as ForwardPrefix requires: a reused buffer must be
// cleared past them.
func (p *ChirpZPlan) Forward(a []complex128) {
	if len(a) != p.fft.n {
		panic(fmt.Sprintf("dsp: chirp-z size mismatch: plan %d, work %d", p.fft.n, len(a)))
	}
	for k, v := range p.q[:p.m] {
		a[k] *= v
	}
	p.fft.ForwardPrefix(a, p.m)
}

// Evaluate finishes the transform Forward began on a: it writes
// scale·X_j for j < bins into dst, which must have length bins. a is
// overwritten.
func (p *ChirpZPlan) Evaluate(dst, a []complex128, scale float64) {
	if len(a) != p.fft.n || len(dst) != p.bins {
		panic(fmt.Sprintf("dsp: chirp-z size mismatch: plan %d/%d, work %d, dst %d", p.fft.n, p.bins, len(a), len(dst)))
	}
	n := p.fft.n
	for k, b := range p.kern {
		a[k] *= b
	}
	for k := len(p.kern); k < n; k++ {
		a[k] *= p.kern[n-k]
	}
	p.fft.execute(a, true) // unnormalized: the 1/N joins scale below
	s := scale / float64(n)
	for j, v := range p.q[:p.bins] {
		y := a[j] * v
		dst[j] = complex(real(y)*s, imag(y)*s)
	}
}
