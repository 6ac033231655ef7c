// Package channel models the RF link between radar and tag: free-space path
// loss, the one-way downlink budget (radar → tag decoder), the two-way
// backscatter budget (radar → tag → radar, with the Van Atta retro-reflection
// gain), thermal noise, and seeded AWGN generators for both the tag's
// envelope-detector samples and the radar's IF samples.
//
// All budget constants are calibrated so the simulated SNR-vs-distance
// mapping matches the paper's reported operating points: ≈16 dB equivalent
// downlink SNR at 7 m (Fig. 13), and an uplink that keeps the tag detectable
// out to and slightly beyond the 7 m system range (Figs. 15–16), with the
// end-to-end limit set by the downlink as in the paper (§6).
package channel

import (
	"fmt"
	"math"
)

const speedOfLight = 299792458.0

// BoltzmannNoiseDBmPerHz is the thermal noise density at 290 K in dBm/Hz.
const BoltzmannNoiseDBmPerHz = -174.0

// FSPL returns the one-way free-space path loss in dB at distance d meters
// and frequency f Hz.
func FSPL(d, f float64) float64 {
	if d <= 0 || f <= 0 {
		return 0
	}
	lambda := speedOfLight / f
	return 20 * math.Log10(4*math.Pi*d/lambda)
}

// ThermalNoiseDBm returns the thermal noise floor in dBm for a receiver of
// the given noise bandwidth (Hz) and noise figure (dB).
func ThermalNoiseDBm(bandwidth, noiseFigureDB float64) float64 {
	return BoltzmannNoiseDBmPerHz + 10*math.Log10(bandwidth) + noiseFigureDB
}

// Link bundles the budget parameters of one radar–tag pair.
type Link struct {
	// TxPowerDBm is the radar transmit power.
	TxPowerDBm float64
	// RadarGainDBi is the radar antenna gain.
	RadarGainDBi float64
	// Frequency is the carrier (chirp center) frequency in Hz.
	Frequency float64
	// TagAntennaGainDBi is the gain of one tag antenna element.
	TagAntennaGainDBi float64
	// TagRetroGainDBi is the effective gain of the Van Atta array in
	// reflective mode; retro-reflectivity is what keeps the two-way link
	// alive at range (§3.2.3).
	TagRetroGainDBi float64
	// TagInsertionLossDB is the decoder-path loss: splitters, delay lines
	// and connectors (§6 lists these as the range-limiting factors).
	TagInsertionLossDB float64
	// DetectorNoiseFloorDBm is the envelope detector + kHz ADC noise floor
	// referenced to the detector input.
	DetectorNoiseFloorDBm float64
	// RadarNoiseFigureDB is the radar receiver noise figure.
	RadarNoiseFigureDB float64
	// IFBandwidth is the radar IF noise bandwidth in Hz.
	IFBandwidth float64
	// ModulationLossDB accounts for the tag spending only part of each
	// period reflecting (50% OOK duty cycle ≈ 3 dB) plus switch loss.
	ModulationLossDB float64
	// ImplementationLossDB lumps the losses the idealized radar equation
	// misses — pointing and polarization mismatch, the small aperture of a
	// 2-element Van Atta, cabling — calibrated so the simulated detection
	// chain, like the paper's prototype, operates out to ≈7 m and fails
	// beyond (Figs. 15–16).
	ImplementationLossDB float64
}

// DefaultLink returns a link calibrated to the paper's 9 GHz prototype.
func DefaultLink() Link {
	return Link{
		TxPowerDBm:            7,
		RadarGainDBi:          12,
		Frequency:             9.5e9,
		TagAntennaGainDBi:     2,
		TagRetroGainDBi:       10,
		TagInsertionLossDB:    12,
		DetectorNoiseFloorDBm: -76,
		RadarNoiseFigureDB:    10,
		IFBandwidth:           4e6,
		ModulationLossDB:      4,
		ImplementationLossDB:  6,
	}
}

// Validate checks the physically required fields.
func (l Link) Validate() error {
	if l.Frequency <= 0 {
		return fmt.Errorf("channel: frequency %v Hz must be positive", l.Frequency)
	}
	if l.IFBandwidth <= 0 {
		return fmt.Errorf("channel: IF bandwidth %v Hz must be positive", l.IFBandwidth)
	}
	return nil
}

// DownlinkRxPowerDBm returns the signal power arriving at the tag's envelope
// detector for a tag at distance d meters.
func (l Link) DownlinkRxPowerDBm(d float64) float64 {
	return l.TxPowerDBm + l.RadarGainDBi + l.TagAntennaGainDBi -
		FSPL(d, l.Frequency) - l.TagInsertionLossDB
}

// DownlinkSNRdB returns the tag-side SNR: detector input power over the
// detector noise floor. This is the "equivalent SNR" the paper quotes for
// downlink experiments.
func (l Link) DownlinkSNRdB(d float64) float64 {
	return l.DownlinkRxPowerDBm(d) - l.DetectorNoiseFloorDBm
}

// DownlinkJSRdB returns the jammer-to-signal power ratio in dB at the tag's
// envelope detector for a tag at distance d, given an in-band interferer
// delivering jammerDBm at the detector input. This is the impairment hook
// the fault-injection layer uses to scale an injected jam tone against the
// legitimate downlink signal.
func (l Link) DownlinkJSRdB(d, jammerDBm float64) float64 {
	return jammerDBm - l.DownlinkRxPowerDBm(d)
}

// UplinkRxPowerDBm returns the modulated backscatter power arriving back at
// the radar receiver from a tag at distance d. The signal traverses the path
// twice; the Van Atta gain applies at the tag re-radiation.
func (l Link) UplinkRxPowerDBm(d float64) float64 {
	return l.TxPowerDBm + 2*l.RadarGainDBi + l.TagAntennaGainDBi + l.TagRetroGainDBi -
		2*FSPL(d, l.Frequency) - l.ModulationLossDB - l.ImplementationLossDB
}

// UplinkSNRdB returns the radar-side SNR of the tag echo after range-Doppler
// processing with the given coherent processing gain (dB). The paper's
// Fig. 15 values are post-processing SNRs, which is why a tag is visible at
// all above the raw thermal floor.
func (l Link) UplinkSNRdB(d, processingGainDB float64) float64 {
	noise := ThermalNoiseDBm(l.IFBandwidth, l.RadarNoiseFigureDB)
	return l.UplinkRxPowerDBm(d) - noise + processingGainDB
}

// ProcessingGainDB returns the coherent gain of range+Doppler integration
// over samplesPerChirp fast-time samples and chirps slow-time chirps.
func ProcessingGainDB(samplesPerChirp, chirps int) float64 {
	if samplesPerChirp < 1 {
		samplesPerChirp = 1
	}
	if chirps < 1 {
		chirps = 1
	}
	return 10 * math.Log10(float64(samplesPerChirp)*float64(chirps))
}

// Reflector is a static environmental scatterer contributing multipath
// clutter to the radar scene.
type Reflector struct {
	// Range is the distance from the radar in meters.
	Range float64
	// RCSdBsm is the radar cross-section in dB relative to 1 m².
	RCSdBsm float64
	// Velocity is the radial velocity in m/s (positive = receding). Static
	// scenes leave it zero; the drone scenario has ego-motion.
	Velocity float64
}

// EchoPowerDBm returns the clutter echo power at the radar from this
// reflector under the link's budget (standard radar equation).
func (l Link) EchoPowerDBm(r Reflector) float64 {
	lambda := speedOfLight / l.Frequency
	if r.Range <= 0 {
		return math.Inf(-1)
	}
	// Pr = Pt·G²·λ²·σ / ((4π)³·d⁴)
	pt := l.TxPowerDBm
	g := 2 * l.RadarGainDBi
	sigma := r.RCSdBsm
	geom := 10 * math.Log10(lambda*lambda/(math.Pow(4*math.Pi, 3)*math.Pow(r.Range, 4)))
	return pt + g + sigma + geom
}

// OfficeClutter returns a representative indoor multipath environment: a
// handful of strong static reflectors (walls, furniture, metal cabinets) as
// seen in the paper's office deployment.
func OfficeClutter() []Reflector {
	return []Reflector{
		{Range: 1.8, RCSdBsm: -5},
		{Range: 3.2, RCSdBsm: 0},
		{Range: 4.5, RCSdBsm: -8},
		{Range: 6.1, RCSdBsm: 2},
		{Range: 8.4, RCSdBsm: -3},
	}
}
