// Package msck implements Multi-Segment Chirp Keying, a quantified take on
// the paper's future-work direction (§6: "more complex downlink modulations
// based on chirp-spread-spectrum (CSS) can be used to improve the data
// rate"). Instead of one slope per chirp (CSSK), each chirp is split into S
// equal-duration segments and every segment's slope is keyed independently,
// carrying S·log2(M) bits per chirp instead of log2(M).
//
// The trade-offs mirror CSS systems: the per-segment observation window
// shrinks by S, so symbol discrimination needs either more SNR or wider
// beat spacing, and the piecewise-linear sweep needs a more agile chirp
// generator than the commodity radars plain CSSK runs on — which is exactly
// why the paper leaves it as future work. The msck experiment quantifies
// the rate-vs-BER frontier of both schemes on the same tag hardware model.
package msck

import (
	"fmt"
	"math"

	"biscatter/internal/channel"
	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/dsp"
)

// Config parameterizes a multi-segment keying scheme.
type Config struct {
	// Bandwidth is the per-chirp mean swept bandwidth B (Hz); individual
	// symbols sweep within ±SlopeSpread of the mean segment slope.
	Bandwidth float64
	// ChirpDuration is the fixed chirp duration (s). Fixing it (unlike
	// CSSK) keeps the radar's unambiguous range constant.
	ChirpDuration float64
	// Period is the chirp period (s).
	Period float64
	// Segments is S, the number of keyed segments per chirp.
	Segments int
	// SlopesPerSegment is M, the per-segment slope alphabet size (a power
	// of two).
	SlopesPerSegment int
	// Pair is the tag's delay-line pair.
	Pair delayline.Pair
	// CenterFrequency evaluates ΔT.
	CenterFrequency float64
	// SampleRate is the tag ADC rate.
	SampleRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("msck: bandwidth %v must be positive", c.Bandwidth)
	case c.ChirpDuration <= 0 || c.ChirpDuration > 0.8*c.Period:
		return fmt.Errorf("msck: chirp duration %v outside (0, 0.8·period]", c.ChirpDuration)
	case c.Segments < 1 || c.Segments > 16:
		return fmt.Errorf("msck: segments %d must be in [1, 16]", c.Segments)
	case c.SlopesPerSegment < 2 || c.SlopesPerSegment&(c.SlopesPerSegment-1) != 0:
		return fmt.Errorf("msck: slopes per segment %d must be a power of two ≥ 2", c.SlopesPerSegment)
	case c.SampleRate <= 0:
		return fmt.Errorf("msck: sample rate %v must be positive", c.SampleRate)
	case c.CenterFrequency <= 0:
		return fmt.Errorf("msck: center frequency %v must be positive", c.CenterFrequency)
	}
	return nil
}

// Scheme is an instantiated multi-segment keying modem.
type Scheme struct {
	cfg Config
	// beats[j] is the decoder beat frequency of slope index j.
	beats []float64
	// segDur is the segment duration in seconds.
	segDur float64
}

// New builds a Scheme. The M per-segment slopes are spread ±40% around the
// mean segment slope B/T, giving beats centered on the CSSK mid-range.
func New(cfg Config) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheme{cfg: cfg, segDur: cfg.ChirpDuration / float64(cfg.Segments)}
	meanSlope := cfg.Bandwidth / cfg.ChirpDuration
	dt := cfg.Pair.DeltaT(cfg.CenterFrequency)
	m := cfg.SlopesPerSegment
	for j := 0; j < m; j++ {
		frac := -0.4 + 0.8*float64(j)/float64(m-1)
		slope := meanSlope * (1 + frac)
		s.beats = append(s.beats, slope*dt)
	}
	if hi := s.beats[m-1]; hi >= cfg.SampleRate/2 {
		return nil, fmt.Errorf("msck: top beat %v Hz violates Nyquist at fs=%v", hi, cfg.SampleRate)
	}
	return s, nil
}

// BitsPerChirp returns S·log2(M).
func (s *Scheme) BitsPerChirp() int {
	return s.cfg.Segments * bitsOf(s.cfg.SlopesPerSegment)
}

func bitsOf(m int) int {
	b := 0
	for m > 1 {
		m >>= 1
		b++
	}
	return b
}

// DataRate returns the downlink rate in bit/s.
func (s *Scheme) DataRate() float64 {
	return float64(s.BitsPerChirp()) / s.cfg.Period
}

// EncodeChirp maps bits (len == BitsPerChirp) to per-segment slope indices,
// Gray-coded within each segment.
func (s *Scheme) EncodeChirp(bits []bool) ([]int, error) {
	if len(bits) != s.BitsPerChirp() {
		return nil, fmt.Errorf("msck: need %d bits per chirp, got %d", s.BitsPerChirp(), len(bits))
	}
	per := bitsOf(s.cfg.SlopesPerSegment)
	out := make([]int, s.cfg.Segments)
	for seg := 0; seg < s.cfg.Segments; seg++ {
		v := uint32(0)
		for b := 0; b < per; b++ {
			v <<= 1
			if bits[seg*per+b] {
				v |= 1
			}
		}
		out[seg] = int(cssk.GrayDecode(v))
	}
	return out, nil
}

// DecodeChirp inverts EncodeChirp.
func (s *Scheme) DecodeChirp(segments []int) ([]bool, error) {
	if len(segments) != s.cfg.Segments {
		return nil, fmt.Errorf("msck: need %d segments, got %d", s.cfg.Segments, len(segments))
	}
	per := bitsOf(s.cfg.SlopesPerSegment)
	out := make([]bool, 0, s.BitsPerChirp())
	for _, idx := range segments {
		if idx < 0 || idx >= s.cfg.SlopesPerSegment {
			return nil, fmt.Errorf("msck: segment index %d out of range", idx)
		}
		v := cssk.GrayEncode(uint32(idx))
		for b := per - 1; b >= 0; b-- {
			out = append(out, v&(1<<uint(b)) != 0)
		}
	}
	return out, nil
}

// SynthesizeChirp produces the tag's envelope-detector samples for one chirp
// carrying the given per-segment slope indices, at the given SNR.
func (s *Scheme) SynthesizeChirp(segments []int, snrDB float64, noise *channel.Noise) ([]float64, error) {
	if len(segments) != s.cfg.Segments {
		return nil, fmt.Errorf("msck: need %d segments, got %d", s.cfg.Segments, len(segments))
	}
	nSeg := int(s.segDur * s.cfg.SampleRate)
	if nSeg < 4 {
		return nil, fmt.Errorf("msck: segment too short (%d samples)", nSeg)
	}
	total := int(s.cfg.Period * s.cfg.SampleRate)
	out := make([]float64, total)
	for seg, idx := range segments {
		if idx < 0 || idx >= len(s.beats) {
			return nil, fmt.Errorf("msck: segment index %d out of range", idx)
		}
		beat := s.beats[idx]
		phase := noise.Rand().Float64() * 2 * math.Pi
		for k := 0; k < nSeg; k++ {
			i := seg*nSeg + k
			if i >= total {
				break
			}
			out[i] = math.Cos(2*math.Pi*beat*float64(k)/s.cfg.SampleRate + phase)
		}
	}
	noise.AddReal(out, channel.SigmaForSNR(1, snrDB))
	return out, nil
}

// DemodulateChirp recovers per-segment slope indices from an envelope
// capture (genie-aligned to the chirp start, as in a steady-state link).
func (s *Scheme) DemodulateChirp(x []float64) []int {
	nSeg := int(s.segDur * s.cfg.SampleRate)
	out := make([]int, s.cfg.Segments)
	for seg := 0; seg < s.cfg.Segments; seg++ {
		lo := seg * nSeg
		hi := lo + nSeg
		if hi > len(x) {
			hi = len(x)
		}
		if hi-lo < 4 {
			out[seg] = 0
			continue
		}
		win := x[lo:hi]
		best, bestP := 0, math.Inf(-1)
		for j, beat := range s.beats {
			if p := dsp.RealToneEnergy(win, beat, s.cfg.SampleRate); p > bestP {
				bestP, best = p, j
			}
		}
		out[seg] = best
	}
	return out
}

// MeasureBER runs chirps random chirps through the scheme at the given SNR
// and returns the bit error counts.
func (s *Scheme) MeasureBER(snrDB float64, chirps int, seed int64) (errs, total int, err error) {
	noise := channel.NewNoise(seed)
	rng := noise.Rand()
	nb := s.BitsPerChirp()
	for c := 0; c < chirps; c++ {
		bits := make([]bool, nb)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		segs, err := s.EncodeChirp(bits)
		if err != nil {
			return 0, 0, err
		}
		x, err := s.SynthesizeChirp(segs, snrDB, noise)
		if err != nil {
			return 0, 0, err
		}
		got := s.DemodulateChirp(x)
		back, err := s.DecodeChirp(got)
		if err != nil {
			return 0, 0, err
		}
		for i := range bits {
			if bits[i] != back[i] {
				errs++
			}
		}
		total += nb
	}
	return errs, total, nil
}
