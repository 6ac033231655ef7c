package tag

import (
	"fmt"

	"biscatter/internal/delayline"
	"biscatter/internal/packet"
)

// Tag assembles the full BiScatter node of Fig. 2: the delay-line decoder
// front-end and decoding algorithm for downlink, the Van Atta RF-switch
// modulator for uplink, and the power model.
type Tag struct {
	// FrontEnd is the analog decoder chain.
	FrontEnd *FrontEnd
	// Decoder is the digital decoding pipeline.
	Decoder *Decoder
	// Modulator drives the uplink RF switch.
	Modulator *Modulator
	// Power is the power model.
	Power PowerModel
	// ID distinguishes tags in multi-tag deployments; it selects the tag's
	// uplink modulation frequency and is matched by downlink addressing.
	ID uint8
}

// ADCRate is the tag's 1 MHz ADC sample rate.
const ADCRate = 1e6

// Config assembles a Tag.
type Config struct {
	// Pair is the physical delay-line pair (required).
	Pair delayline.Pair
	// Packet is the downlink packet framing, its alphabet the agreed CSSK
	// constellation (required). The decoder stops classifying a frame's
	// chirps where the packet's payload ends (see Decoder.DecodeSymbols).
	Packet packet.Config
	// CenterFrequency is the chirp center frequency; required.
	CenterFrequency float64
	// Modulator configures the uplink; required for uplink operation.
	Modulator *Modulator
	// Seed seeds the tag's noise processes.
	Seed int64
	// ID is the tag identifier.
	ID uint8
}

// New builds a Tag.
func New(cfg Config) (*Tag, error) {
	if err := cfg.Packet.Validate(); err != nil {
		return nil, err
	}
	fe, err := NewFrontEnd(cfg.Pair, ADCRate, cfg.CenterFrequency, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dec, err := NewDecoder(cfg.Packet.Alphabet, ADCRate)
	if err != nil {
		return nil, err
	}
	dec.framing = &cfg.Packet
	return &Tag{
		FrontEnd:  fe,
		Decoder:   dec,
		Modulator: cfg.Modulator,
		Power:     DefaultPowerModel(),
		ID:        cfg.ID,
	}, nil
}

// UplinkStates returns the per-chirp reflect/absorb switch states carrying
// the given uplink bits across n chirps.
func (t *Tag) UplinkStates(bits []bool, period float64, n int) ([]bool, error) {
	return t.UplinkStatesInto(nil, bits, period, n)
}

// UplinkStatesInto is UplinkStates writing into dst (grown as needed and
// returned), so per-exchange scene building can reuse one state buffer per
// node.
func (t *Tag) UplinkStatesInto(dst []bool, bits []bool, period float64, n int) ([]bool, error) {
	if t.Modulator == nil {
		return nil, fmt.Errorf("tag: no modulator configured")
	}
	return t.Modulator.StatesInto(dst, bits, period, n), nil
}
