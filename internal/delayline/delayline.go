// Package delayline models the tag's differential delay lines: coaxial
// cables for the bench prototypes and PCB microstrip meander lines (§4,
// Figs. 9–11). The model captures the quantities BiScatter's decoder depends
// on — the delay difference ΔT between the two lines, its dispersion across
// the radar bandwidth, insertion loss, and S11 — plus the one-time
// calibration the paper uses to absorb dielectric-constant uncertainty.
package delayline

import (
	"fmt"
	"math"
)

// speedOfLight in m/s.
const speedOfLight = 299792458.0

// MetersPerInch converts the paper's inch-denominated cable lengths.
const MetersPerInch = 0.0254

// The paper's bench coax pair: two cables 45 inches apart in length,
// velocity factor k = 0.7. Every experiment but Fig. 14, which sweeps ΔL,
// runs this pair.
const (
	CoaxDeltaL         = 45 * MetersPerInch
	CoaxVelocityFactor = 0.7
)

// Line models a single transmission line (coax segment or microstrip
// meander).
type Line struct {
	// Length is the electrical path length in meters.
	Length float64
	// VelocityFactor is k: the signal speed as a fraction of c (≈0.7 for
	// the paper's coax, ≈0.5 for high-εr microstrip).
	VelocityFactor float64
	// Dispersion is the fractional delay change per GHz of offset from
	// RefFrequency. Real dielectrics are slightly dispersive, which is why
	// the paper calls for a one-time calibration (§3.2.1).
	Dispersion float64
	// RefFrequency is the frequency (Hz) at which VelocityFactor is quoted.
	RefFrequency float64
	// ConductorLossCoeff is the conductor (skin-effect) loss in dB per meter
	// per √GHz.
	ConductorLossCoeff float64
	// DielectricLossCoeff is the dielectric loss in dB per meter per GHz.
	DielectricLossCoeff float64
	// Z0 is the line's characteristic impedance (Ω); ZRef the system
	// impedance it is matched against (50 Ω). The mismatch sets the S11
	// ripple floor.
	Z0, ZRef float64
}

// Validate checks the line's physical parameters.
func (l Line) Validate() error {
	switch {
	case l.Length <= 0:
		return fmt.Errorf("delayline: length %v m must be positive", l.Length)
	case l.VelocityFactor <= 0 || l.VelocityFactor > 1:
		return fmt.Errorf("delayline: velocity factor %v must be in (0, 1]", l.VelocityFactor)
	case l.RefFrequency <= 0:
		return fmt.Errorf("delayline: reference frequency %v Hz must be positive", l.RefFrequency)
	case l.Z0 <= 0 || l.ZRef <= 0:
		return fmt.Errorf("delayline: impedances must be positive (Z0=%v, ZRef=%v)", l.Z0, l.ZRef)
	}
	return nil
}

// Delay returns the group delay in seconds at frequency f (Hz), including
// dispersion.
func (l Line) Delay(f float64) float64 {
	base := l.Length / (l.VelocityFactor * speedOfLight)
	offsetGHz := (f - l.RefFrequency) / 1e9
	return base * (1 + l.Dispersion*offsetGHz)
}

// InsertionLossDB returns the line's insertion loss in dB (positive number)
// at frequency f, from conductor (∝√f) and dielectric (∝f) contributions.
func (l Line) InsertionLossDB(f float64) float64 {
	fGHz := f / 1e9
	if fGHz < 0 {
		fGHz = 0
	}
	return l.Length * (l.ConductorLossCoeff*math.Sqrt(fGHz) + l.DielectricLossCoeff*fGHz)
}

// S11DB returns the input return loss in dB (negative number; more negative
// is better) at frequency f. The model combines the static impedance
// mismatch with the standing-wave ripple between the two line ends,
// attenuated by the round-trip line loss — the classic source of the ripple
// visible in Fig. 10.
func (l Line) S11DB(f float64) float64 {
	gamma := math.Abs(l.Z0-l.ZRef) / (l.Z0 + l.ZRef)
	if gamma == 0 {
		return -80 // measurement floor
	}
	// Round-trip amplitude of the reflection off the far end.
	roundTripLoss := math.Pow(10, -2*l.InsertionLossDB(f)/20)
	phase := 4 * math.Pi * f * l.Delay(f)
	re := gamma + gamma*roundTripLoss*math.Cos(phase)
	im := gamma * roundTripLoss * math.Sin(phase)
	mag := math.Hypot(re, im)
	if mag < 1e-4 {
		mag = 1e-4
	}
	if mag > 1 {
		mag = 1
	}
	db := 20 * math.Log10(mag)
	if db < -80 {
		db = -80
	}
	return db
}

// Pair is the tag's two delay lines; the decoder's beat frequency depends on
// their delay difference ΔT.
type Pair struct {
	Short, Long Line
}

// Validate checks both lines and that Long is actually longer.
func (p Pair) Validate() error {
	if err := p.Short.Validate(); err != nil {
		return fmt.Errorf("short line: %w", err)
	}
	if err := p.Long.Validate(); err != nil {
		return fmt.Errorf("long line: %w", err)
	}
	if p.Long.Delay(p.Long.RefFrequency) <= p.Short.Delay(p.Short.RefFrequency) {
		return fmt.Errorf("delayline: long line must have larger delay than short line")
	}
	return nil
}

// DeltaT returns the delay difference ΔT (seconds) at frequency f.
func (p Pair) DeltaT(f float64) float64 {
	return p.Long.Delay(f) - p.Short.Delay(f)
}

// NominalDeltaT returns ΔT at the pair's reference frequency.
func (p Pair) NominalDeltaT() float64 {
	return p.DeltaT(p.Long.RefFrequency)
}

// DeltaLength returns the physical length difference ΔL in meters.
func (p Pair) DeltaLength() float64 {
	return p.Long.Length - p.Short.Length
}

// ExpectedBeat returns the decoder beat frequency Δf = α·ΔT for a chirp of
// slope alpha (Hz/s), evaluating ΔT at the chirp center frequency f.
func (p Pair) ExpectedBeat(alpha, f float64) float64 {
	return alpha * p.DeltaT(f)
}

// MeanInsertionLossDB returns the average of the two lines' insertion losses
// at frequency f — the loss term the decoder path contributes to the
// downlink link budget (§6 "Radar Downlink Operating Range").
func (p Pair) MeanInsertionLossDB(f float64) float64 {
	return (p.Short.InsertionLossDB(f) + p.Long.InsertionLossDB(f)) / 2
}

// BeatFromEquation11 evaluates the paper's Eq. 11 directly:
// Δf = B·ΔL / (T_chirp·k·c), with deltaL in meters.
func BeatFromEquation11(bandwidth, tChirp, deltaL, k float64) float64 {
	return bandwidth * deltaL / (tChirp * k * speedOfLight)
}

// NewCoaxPair builds the bench-prototype pair: two coax cables whose lengths
// differ by deltaL meters, velocity factor k (CoaxVelocityFactor for the
// paper's cables), referenced at 9.5 GHz with typical RG-405 loss numbers
// and a small impedance mismatch.
func NewCoaxPair(deltaL, k float64) (Pair, error) {
	if deltaL <= 0 {
		return Pair{}, fmt.Errorf("delayline: ΔL %v m must be positive", deltaL)
	}
	if k <= 0 || k > 1 {
		return Pair{}, fmt.Errorf("delayline: velocity factor %v must be in (0, 1]", k)
	}
	p := coaxPair(deltaL, k)
	if err := p.Validate(); err != nil {
		return Pair{}, err
	}
	return p, nil
}

// PaperCoaxPair is NewCoaxPair(CoaxDeltaL, CoaxVelocityFactor), which is
// valid by construction.
func PaperCoaxPair() Pair { return coaxPair(CoaxDeltaL, CoaxVelocityFactor) }

func coaxPair(deltaL, k float64) Pair {
	mk := func(length float64) Line {
		return Line{
			Length:              length,
			VelocityFactor:      k,
			Dispersion:          0.002, // coax is nearly dispersion-free
			RefFrequency:        9.5e9,
			ConductorLossCoeff:  1.0, // dB/m/√GHz
			DielectricLossCoeff: 0.1, // dB/m/GHz
			Z0:                  51,  // slight mismatch → realistic S11
			ZRef:                50,
		}
	}
	return Pair{Short: mk(0.15), Long: mk(0.15 + deltaL)}
}

// NewMeanderPair builds the PCB-integrated pair of Fig. 9: Rogers 3006
// microstrip meander lines sized to give ≈1.26 ns of differential delay
// across a 1 GHz bandwidth at 9 GHz (the paper's measured figure), in a
// 64 mm × 3 mm footprint for the long line.
func NewMeanderPair() Pair {
	// Rogers 3006: εr = 6.15 → effective εeff ≈ 4.4 for thin microstrip,
	// velocity factor 1/√εeff ≈ 0.48.
	mk := func(length float64) Line {
		return Line{
			Length:              length,
			VelocityFactor:      0.48,
			Dispersion:          0.012, // meander coupling adds dispersion
			RefFrequency:        9.5e9,
			ConductorLossCoeff:  3.0, // thin traces lose more than coax
			DielectricLossCoeff: 0.6,
			Z0:                  53,
			ZRef:                50,
		}
	}
	// ΔT = ΔL/(k·c) = 1.26 ns → ΔL = 1.26e-9·0.48·c ≈ 0.181 m of extra
	// meandered path.
	deltaL := 1.26e-9 * 0.48 * speedOfLight
	return Pair{Short: mk(0.02), Long: mk(0.02 + deltaL)}
}
