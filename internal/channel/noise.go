package channel

import (
	"math"
	"math/rand"
)

// Noise is a seeded additive white Gaussian noise source. Every stochastic
// element of the simulator draws from an explicitly seeded Noise so that
// experiments are reproducible bit-for-bit.
type Noise struct {
	rng *rand.Rand
}

// NewNoise creates a noise source with the given seed.
func NewNoise(seed int64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying generator for non-Gaussian randomness (e.g.
// payload generation) that should share the experiment seed.
func (n *Noise) Rand() *rand.Rand { return n.rng }

// AddReal adds N(0, sigma²) noise to x in place and returns x.
func (n *Noise) AddReal(x []float64, sigma float64) []float64 {
	if sigma <= 0 {
		return x
	}
	for i := range x {
		x[i] += sigma * n.rng.NormFloat64()
	}
	return x
}

// AddComplex adds circularly symmetric complex Gaussian noise with total
// variance sigma² (sigma/√2 per quadrature) to x in place and returns x.
func (n *Noise) AddComplex(x []complex128, sigma float64) []complex128 {
	if sigma <= 0 {
		return x
	}
	s := sigma / math.Sqrt2
	for i := range x {
		x[i] += complex(s*n.rng.NormFloat64(), s*n.rng.NormFloat64())
	}
	return x
}

// SigmaForSNR returns the noise standard deviation that gives the requested
// SNR (dB) against a sinusoid of the given amplitude: signal power A²/2.
func SigmaForSNR(amplitude, snrDB float64) float64 {
	signalPower := amplitude * amplitude / 2
	noisePower := signalPower / math.Pow(10, snrDB/10)
	return math.Sqrt(noisePower)
}
