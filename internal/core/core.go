// Package core assembles the full BiScatter system: a radar access point
// that encodes downlink packets into CSSK frames while sensing, one or more
// backscatter nodes that decode the downlink and modulate the uplink, and
// the channel that binds them. It is the integration layer the public
// biscatter package re-exports and the experiment harness drives.
package core

import (
	"fmt"

	"biscatter/internal/channel"
	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/mac"
	"biscatter/internal/packet"
	"biscatter/internal/parallel"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
)

// LinkFromPreset derives a link budget from a radar preset, keeping the
// calibrated default losses.
func LinkFromPreset(p fmcw.Preset) channel.Link {
	l := channel.DefaultLink()
	l.TxPowerDBm = p.TxPowerDBm
	l.RadarGainDBi = p.AntennaGainDBi
	l.Frequency = p.Chirp.CenterFrequency()
	l.RadarNoiseFigureDB = p.NoiseFigureDB
	l.IFBandwidth = p.Chirp.SampleRate
	return l
}

// NodeConfig places one backscatter node in the network.
type NodeConfig struct {
	// ID is the node identifier carried in downlink addressing.
	ID uint8
	// Range is the node's distance from the radar in meters.
	Range float64
	// ModulationF0 is the node's uplink tone for 0-bits (and its
	// localization signature); each node needs a unique value. Zero
	// auto-assigns.
	ModulationF0 float64
	// ModulationF1 is the uplink tone for 1-bits (FSK). Zero auto-assigns.
	ModulationF1 float64
}

// Config assembles a Network.
type Config struct {
	// Preset selects the radar platform; defaults to the 9 GHz prototype.
	Preset fmcw.Preset
	// Period is the chirp period; defaults to the preset's.
	Period float64
	// SymbolBits is the CSSK symbol size; default 5 (the paper's headline
	// operating point). Fewer bits use fewer slopes over the same duration
	// range, widening the alphabet spacing — the first lever the link
	// controller pulls when degrading.
	SymbolBits int
	// HeaderChirps is the downlink preamble header length in chirps;
	// default 8. Longer headers make period estimation survive jammed
	// chirps at the cost of airtime.
	HeaderChirps int
	// SyncChirps is the downlink sync field length in chirps; default 2.
	SyncChirps int
	// FEC selects the downlink forward-error-correction layer. The zero
	// value disables coding and keeps the on-air frames byte-identical to a
	// pre-FEC build.
	FEC fec.Config
	// ChirpsPerBit is the uplink bit length in chirps; default 32.
	ChirpsPerBit int
	// Nodes places the backscatter nodes; at least one is required.
	Nodes []NodeConfig
	// Schedule time-division-multiplexes the nodes across frames when the
	// deployment exceeds the slow-time tone capacity: auto-assigned FSK
	// pairs are allocated per schedule slot (tags in different frame groups
	// reuse tones), and ExchangeScheduled serves every group over one
	// schedule cycle. Nil — the default — keeps every node concurrent in
	// every frame, which requires the deployment to fit the tone grid.
	Schedule *mac.FrameSchedule
	// Clutter is the static environment; defaults to the office scene.
	Clutter []channel.Reflector
	// Faults is the impairment profile applied to the whole network —
	// interference, chirp dropouts, moving clutter, per-tag front-end
	// degradations. Nil (or a profile with every impairment disabled)
	// leaves all results byte-identical to a fault-free network.
	Faults *fault.Profile
	// Seed seeds all stochastic components.
	Seed int64
	// Workers sizes the worker pool the exchange engine fans per-chirp,
	// per-node and per-bin work across; non-positive selects GOMAXPROCS.
	// Results are byte-identical for any worker count.
	Workers int
	// Metrics receives the network's pipeline telemetry (per-stage latency
	// histograms, per-node outcome counters, BER tallies, detection gauges,
	// worker-pool statistics). Nil disables collection at near-zero cost.
	// A registry may be shared across networks (eval sweeps aggregate this
	// way). Telemetry never influences exchange results.
	Metrics *telemetry.Metrics
	// Tracer collects one causal span tree per exchange — the full pipeline
	// breakdown (frame build, per-node downlink decodes, radar observe and
	// IF correction, detection, per-node uplink demods) under a
	// deterministic exchange identity — into its bounded ring, and records
	// a trip on exchange errors and when a link controller's circuit
	// breaker opens. Nil disables tracing entirely: the hot path then never
	// wraps the context or builds spans, so the zero-allocation exchange
	// contract holds. A tracer may be shared across networks (a Fleet
	// shares one).
	Tracer *telemetry.Tracer
	// NetworkID identifies this network in exchange IDs and traces. A Fleet
	// assigns its dense network id; standalone networks default to 0.
	NetworkID int
}

func (c Config) withDefaults() Config {
	if c.Preset.Name == "" {
		c.Preset = fmcw.Radar9GHz()
	}
	if c.Period == 0 {
		c.Period = c.Preset.DefaultPeriod
	}
	if c.SymbolBits == 0 {
		c.SymbolBits = 5
	}
	if c.HeaderChirps == 0 {
		c.HeaderChirps = 8
	}
	if c.SyncChirps == 0 {
		c.SyncChirps = 2
	}
	if c.ChirpsPerBit == 0 {
		c.ChirpsPerBit = 32
	}
	if c.Clutter == nil {
		c.Clutter = channel.OfficeClutter()
	}
	return c
}

// Node is a deployed backscatter node.
type Node struct {
	// Tag is the node's hardware model.
	Tag *tag.Tag
	// Range is the distance from the radar.
	Range float64
	// Uplink is the node's slow-time modulation plan as known to the radar.
	Uplink radar.UplinkFSKConfig
}

// Network is a BiScatter deployment: one radar access point and its nodes.
//
// # Concurrency contract
//
// A Network is a single-threaded exchange engine: it reuses internal
// scratch buffers across calls (its radar reuses frame-shaped buffers and
// each tag's decoder reuses capture-shaped buffers), so no two methods may
// run concurrently on the same Network, and slice-typed outputs are valid
// only until the next call on the same Network — callers that keep results
// across exchanges must copy them. Separate Networks share nothing mutable
// and may run fully in parallel; a Fleet packages that pattern as a server
// (many networks, each driven serially, at most Engines running at once).
type Network struct {
	cfg      Config
	link     channel.Link
	alphabet *cssk.Alphabet
	pkt      packet.Config
	builder  *fmcw.FrameBuilder
	radar    *radar.Radar
	nodes    []*Node
	pair     delayline.Pair
	pool     *parallel.Pool
	tel      coreTel
	tracer   *telemetry.Tracer
	radarInj *fault.RadarInjector
	scr      exchangeScratch

	// seq numbers this network's exchanges from 0; together with the seed
	// and NetworkID it derives each round's deterministic ExchangeID. It
	// always advances (one integer add), so identities stay aligned whether
	// or not tracing is on.
	seq uint64
}

// exchangeScratch is the per-exchange buffer set the pipeline reuses: the
// scene's tag echoes and switch states, the magnitude matrix and background
// row, each node's tone pair for the radar's joint tag search, and the
// round's stage state.
type exchangeScratch struct {
	tags   []radar.TagEcho
	states [][]bool
	mag    [][]float64
	bg     []float64
	tones  [][]float64
	// active[i] reports whether node i modulates in the current round;
	// inactive nodes hold a static switch state and are skipped by the
	// decode/detect stages. Set by setActive before every round.
	active []bool
	// group is the schedule loop's reusable group list (eachGroup).
	group []int
	// x is the current round's stage state.
	x exchangeState
}

// NewNetwork builds a network from the configuration, then applies the
// functional options in order (so an option overrides the Config field it
// names). At least one node is required; everything else has calibrated
// defaults.
func NewNetwork(cfg Config, opts ...Option) (*Network, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	if s := cfg.Schedule; s != nil && s.NTags() != len(cfg.Nodes) {
		return nil, fmt.Errorf("core: schedule covers %d tags but the network has %d nodes", s.NTags(), len(cfg.Nodes))
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	link := LinkFromPreset(cfg.Preset)

	pair := delayline.PaperCoaxPair()
	fc := cfg.Preset.Chirp.CenterFrequency()
	cal := delayline.FromPair(pair, fc)
	alphabet, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        cfg.Preset.Chirp.Bandwidth,
		Period:           cfg.Period,
		MinChirpDuration: cssk.ChirpFloor,
		DeltaT:           cal.EffectiveDeltaT,
		MinBeatSpacing:   cssk.BeatSpacing,
		SymbolBits:       cfg.SymbolBits,
	})
	if err != nil {
		return nil, err
	}
	pkt := packet.Config{Alphabet: alphabet, HeaderLen: cfg.HeaderChirps, SyncLen: cfg.SyncChirps, FEC: cfg.FEC}
	if err := pkt.Validate(); err != nil {
		return nil, err
	}
	builder, err := fmcw.NewFrameBuilder(cfg.Preset.Chirp, cfg.Period)
	if err != nil {
		return nil, err
	}
	rd, err := radar.New(radar.Config{
		Chirp:   cfg.Preset.Chirp,
		Link:    link,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}

	n := &Network{
		cfg:      cfg,
		link:     link,
		alphabet: alphabet,
		pkt:      pkt,
		builder:  builder,
		radar:    rd,
		pair:     pair,
		pool:     parallel.New(cfg.Workers).Instrument(cfg.Metrics),
		tel:      newCoreTel(cfg.Metrics, len(cfg.Nodes)),
		tracer:   cfg.Tracer,
		radarInj: fault.NewRadarInjector(cfg.Faults, cfg.Seed, cfg.Metrics),
	}
	chirpRate := 1 / cfg.Period
	for i, nc := range cfg.Nodes {
		if nc.Range <= 0 {
			return nil, fmt.Errorf("core: node %d range %v m must be positive", i, nc.Range)
		}
		f0, f1 := nc.ModulationF0, nc.ModulationF1
		// Auto-assigned tones sit on a grid whose step tracks the uplink
		// bit rate: a bit window of ChirpsPerBit chirps resolves slow-time
		// tones no finer than chirpRate/ChirpsPerBit, so both the FSK pair
		// spacing and the inter-node spacing must exceed that. Under a
		// frame schedule the grid index is the node's slot within its
		// frame group, so tags that never modulate in the same frame reuse
		// the same FSK pair and the deployment can exceed the grid.
		bitRate := chirpRate / float64(cfg.ChirpsPerBit)
		step := 2 * bitRate
		if min := 0.02 * chirpRate; step < min {
			step = min
		}
		base := 0.15 * chirpRate
		slot := i
		if cfg.Schedule != nil {
			slot = cfg.Schedule.SlotOf(i)
		}
		if f0 == 0 {
			f0 = base + float64(2*slot)*step
		}
		if f1 == 0 {
			f1 = f0 + step
		}
		if f1 >= chirpRate/2 {
			return nil, fmt.Errorf("%w: node %d (f1=%.0f Hz ≥ %.0f Hz)", ErrToneBandExceeded, i, f1, chirpRate/2)
		}
		mod, err := tag.NewModulator(tag.SchemeFSK, f0, f1, cfg.Period, cfg.ChirpsPerBit)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		tg, err := tag.New(tag.Config{
			Pair:            pair,
			Packet:          pkt,
			CenterFrequency: fc,
			Modulator:       mod,
			Seed:            cfg.Seed + int64(i) + 1,
			ID:              nc.ID,
		})
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		// Per-node impairment injector. The jammer-to-signal ratio at this
		// tag's detector input scales the injected tone against the node's
		// own downlink signal, so nearer nodes see proportionally weaker
		// relative interference.
		jsr := 0.0
		if f := cfg.Faults; f != nil && f.Interference != nil {
			jsr = link.DownlinkJSRdB(nc.Range, f.Interference.TagPowerDBm)
		}
		tg.FrontEnd.Faults = fault.NewTagInjector(cfg.Faults, i, cfg.Seed, jsr, cfg.Metrics)
		n.nodes = append(n.nodes, &Node{
			Tag:   tg,
			Range: nc.Range,
			Uplink: radar.UplinkFSKConfig{
				F0: f0, F1: f1,
				ChirpsPerBit: cfg.ChirpsPerBit,
				Period:       cfg.Period,
			},
		})
	}
	if err := n.warmRadar(); err != nil {
		return nil, err
	}
	return n, nil
}

// Alphabet returns the network's CSSK constellation.
func (n *Network) Alphabet() *cssk.Alphabet { return n.alphabet }

// Packet returns the downlink framing configuration.
func (n *Network) Packet() packet.Config { return n.pkt }

// Link returns the network's link budget.
func (n *Network) Link() channel.Link { return n.link }

// Radar returns the access point's receive processor.
func (n *Network) Radar() *radar.Radar { return n.radar }

// Builder returns the frame builder.
func (n *Network) Builder() *fmcw.FrameBuilder { return n.builder }

// Nodes returns the deployed nodes.
func (n *Network) Nodes() []*Node { return n.nodes }

// Pair returns the tag delay-line pair.
func (n *Network) Pair() delayline.Pair { return n.pair }

// Config returns the network configuration with defaults applied.
func (n *Network) Config() Config { return n.cfg }

// Schedule returns the network's multi-tag frame schedule (nil when every
// node is concurrent in every frame).
func (n *Network) Schedule() *mac.FrameSchedule { return n.cfg.Schedule }

// DownlinkDataRate returns the CSSK downlink data rate in bit/s (Eq. 14).
func (n *Network) DownlinkDataRate() float64 {
	return n.alphabet.Config().DataRate()
}
