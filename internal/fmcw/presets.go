package fmcw

// Radar presets matching the two platforms the paper evaluates (§4).

// Preset bundles a radar front-end configuration.
type Preset struct {
	// Name identifies the platform.
	Name string
	// Chirp is the base chirp configuration; Duration holds the default
	// (sensing-mode) chirp duration and is overridden per CSSK symbol.
	Chirp ChirpParams
	// TxPowerDBm is the transmit power in dBm.
	TxPowerDBm float64
	// AntennaGainDBi is the radar antenna gain in dBi.
	AntennaGainDBi float64
	// NoiseFigureDB is the receiver noise figure in dB.
	NoiseFigureDB float64
	// DefaultPeriod is the chirp period T_period used by the evaluation
	// (120 µs in §5).
	DefaultPeriod float64
}

// Radar9GHz models the sub-10 GHz platform: a TI LMX2492EVM chirp generator
// with a ZX80-05113LN+ amplifier — 9 GHz start frequency, up to 1 GHz of
// configurable bandwidth, 7 dBm output.
func Radar9GHz() Preset {
	return Preset{
		Name: "9GHz-LMX2492",
		Chirp: ChirpParams{
			StartFrequency: 9e9,
			Bandwidth:      1e9,
			Duration:       60e-6,
			SampleRate:     4e6,
		},
		TxPowerDBm:     7,
		AntennaGainDBi: 12,
		NoiseFigureDB:  10,
		DefaultPeriod:  120e-6,
	}
}

// Radar24GHz models the Analog Devices TinyRad: 24 GHz carrier, 250 MHz of
// bandwidth (limited by the ISM band), 8 dBm output.
func Radar24GHz() Preset {
	return Preset{
		Name: "24GHz-TinyRad",
		Chirp: ChirpParams{
			StartFrequency: 24e9,
			Bandwidth:      250e6,
			Duration:       60e-6,
			SampleRate:     4e6,
		},
		TxPowerDBm:     8,
		AntennaGainDBi: 13, // higher-gain patch array practical at 24 GHz
		NoiseFigureDB:  12,
		DefaultPeriod:  120e-6,
	}
}
