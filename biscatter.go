// Package biscatter is a simulation-backed implementation of BiScatter
// (SIGCOMM 2024): integrated two-way radar backscatter communication and
// sensing between an off-the-shelf FMCW radar and low-power IoT tags.
//
// The radar access point encodes downlink bits into chirp slopes
// (Chirp-Slope-Shift Keying) while continuing to sense; tags decode the
// slopes with a passive differential delay-line circuit sampled by a kHz
// ADC, and answer by modulating their Van Atta retro-reflection; the radar
// simultaneously localizes every tag to centimeter level and demodulates
// its uplink.
//
// The package is a facade over the internal subsystems. The typical flow:
//
//	net, err := biscatter.NewNetwork(biscatter.Config{
//	    Nodes: []biscatter.NodeConfig{{ID: 1, Range: 3.0}},
//	})
//	res, err := net.Exchange([]byte("hello tag"), map[int][]bool{0: {true, false}})
//
// Exchange transmits one CSSK frame carrying the payload, lets every node
// decode it at its own link SNR, collects the nodes' backscatter, and
// returns per-node downlink payloads, localization fixes and uplink bits.
//
// NewNetwork also takes functional options alongside (or instead of) the
// Config struct, and every pipeline entry point has a context-aware
// variant that honors cancellation between and inside stages:
//
//	net, err := biscatter.NewNetwork(biscatter.Config{},
//	    biscatter.WithNodes(biscatter.NodeConfig{ID: 1, Range: 3.0}),
//	    biscatter.WithWorkers(8),
//	)
//	res, err := net.ExchangeContext(ctx, payload, bits)
//
// Above single exchanges sits reliable delivery. DeliverReliableContext
// retries a payload under a configurable ARQ policy — attempt budget and
// majority-vote ACK redundancy, with capped exponential backoff under
// deterministic jitter — and returns a per-attempt DeliveryReport. NewLinkController
// wraps it with adaptive graceful degradation over a LinkMode ladder:
// as deliveries fail it raises FEC strength (WithFEC), widens chirp-slope
// spacing and lengthens preambles (WithPreamble), and when even the
// survival mode fails it opens a per-node circuit breaker that fails fast
// (ErrNodeQuarantined) between half-open probes.
//
// The exchange engine fans its per-chirp, per-node and per-bin work across
// a worker pool sized by WithWorkers (GOMAXPROCS by default). All
// randomness is seeded and every parallel stage writes results by index,
// so a run is reproducible bit-for-bit at any worker count. See DESIGN.md
// for the architecture and EXPERIMENTS.md for the paper-reproduction
// results.
//
// # Serving many networks: Fleet vs Network
//
// A Network is a single-threaded engine: one deployment, one goroutine,
// zero steady-state allocations. A Fleet is the serving layer above it,
// hosting many Networks with concurrent submission: each call runs on its
// caller's goroutine, one at a time per network and at most Engines at
// once, with aggregate telemetry. Choose by workload:
//
//	                     Network                Fleet
//	deployments          one                    many
//	callers              one goroutine          any number of goroutines
//	scheduling           caller's loop          per-network turn, Engines wide
//	backpressure         none (caller-paced)    wait for turn + slot, ctx deadline
//	telemetry            per-network registry   shared registry + fleet.* stats
//	determinism          bit-for-bit            bit-for-bit per network
//
// Use a bare Network for experiments, benchmarks and single-deployment
// tools; use a Fleet when one process serves several deployments or takes
// requests from concurrent callers:
//
//	fleet := biscatter.NewFleet(biscatter.FleetConfig{Engines: 4},
//	    biscatter.WithWorkers(1)) // fleet-wide defaults, same Option set
//	defer fleet.Close()
//	fn, err := fleet.AddNetwork(cfg, biscatter.WithSeed(7)) // per-network override
//	res, err := fn.ExchangeContext(ctx, payload, bits)      // concurrent-safe
//
// Deployments larger than the slow-time tone budget attach a FrameSchedule
// (NewFrameSchedule, WithSchedule): tags in different frame groups reuse
// FSK tone pairs, and ExchangeScheduled serves every group over one TDMA
// cycle while scheduled-out tags sleep.
//
// Telemetry is opt-in and off by default. Attach a metrics registry to see
// per-stage latency histograms (p50/p95/p99), per-node decode / detection /
// demod outcome counters, BER tallies and detection-quality gauges:
//
//	m := biscatter.NewMetrics()
//	net, err := biscatter.NewNetwork(cfg, biscatter.WithMetrics(m))
//	// ... run exchanges ...
//	snap := net.Metrics() // or m.Snapshot()
//
// WithTracer additionally collects one causal span tree per exchange.
// Counter values are deterministic for a given workload at any worker
// count; timings and live pool gauges are not. See DESIGN.md "Telemetry"
// for the metric naming scheme and the command-line debug endpoints
// (-debug-addr, -metrics-out).
package biscatter

import (
	"biscatter/internal/channel"
	"biscatter/internal/core"
	"biscatter/internal/cssk"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/mac"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// Re-exported configuration and result types. The aliases share identity
// with the internal types, so advanced users can drop down to the internal
// packages without conversions.
type (
	// Config assembles a Network; zero values select the paper's 9 GHz
	// defaults.
	Config = core.Config
	// NodeConfig places one backscatter node.
	NodeConfig = core.NodeConfig
	// Network is a radar access point plus its backscatter nodes.
	Network = core.Network
	// Node is a deployed backscatter node.
	Node = core.Node
	// ExchangeResult is the outcome of one integrated ISAC round.
	ExchangeResult = core.ExchangeResult
	// NodeResult is one node's slice of an ExchangeResult.
	NodeResult = core.NodeResult
	// Detection is a localization fix.
	Detection = radar.Detection
	// MapTarget is a static object in the radar's environment map.
	MapTarget = radar.MapTarget
	// Link is the radio link budget.
	Link = channel.Link
	// Reflector is one static scatterer of the clutter environment.
	Reflector = channel.Reflector
	// Preset is a radar platform configuration.
	Preset = fmcw.Preset
	// PowerModel is the tag power budget of §4.1.
	PowerModel = tag.PowerModel
	// Diagnostics carries the tag decoder's per-stage pipeline diagnostics
	// attached to each NodeResult.
	Diagnostics = tag.Diagnostics
	// UplinkFSKConfig is a node's slow-time FSK modulation plan as known to
	// the radar.
	UplinkFSKConfig = radar.UplinkFSKConfig
	// Symbol is one CSSK chirp symbol of a downlink frame.
	Symbol = cssk.Symbol
	// DetectionDiag is the radar-side detection quality attached to each
	// NodeResult — the uplink mirror of Diagnostics.
	DetectionDiag = radar.DetectionDiag
	// Metrics is a telemetry registry: lock-cheap counters, gauges and
	// latency histograms the pipeline records into when attached via
	// WithMetrics.
	Metrics = telemetry.Metrics
	// Snapshot is a point-in-time JSON-marshalable view of a Metrics
	// registry.
	Snapshot = telemetry.Snapshot
	// HistogramStats summarizes one latency histogram (count, sum, mean,
	// min, max, p50/p95/p99).
	HistogramStats = telemetry.HistogramStats
	// FaultProfile is a named impairment scenario applied to a network via
	// WithFaults: burst interference, chirp dropouts, moving clutter and
	// per-tag front-end degradations, all seeded and reproducible.
	FaultProfile = fault.Profile
	// Interference configures the duty-cycled in-band jammer of a
	// FaultProfile.
	Interference = fault.Interference
	// Dropout configures per-chirp TX dropouts of a FaultProfile.
	Dropout = fault.Dropout
	// TagFaults groups the tag-front-end impairments of a FaultProfile.
	TagFaults = fault.TagFaults
	// OscillatorDrift configures tag beat-frequency drift.
	OscillatorDrift = fault.OscillatorDrift
	// Saturation configures tag ADC clipping and quantization.
	Saturation = fault.Saturation
	// Desync configures tag capture-start jitter against the chirp period.
	Desync = fault.Desync
	// Option is a functional option for NewNetwork; see WithWorkers,
	// WithPreset, WithClutter, WithSeed, WithNodes, WithFaults and
	// WithMetrics.
	Option = core.Option
	// ExchangeOption customizes a single Exchange round; see WithMinChirps.
	ExchangeOption = core.ExchangeOption
	// FECConfig selects and parameterizes downlink forward error correction;
	// apply it with WithFEC or as part of a LinkMode.
	FECConfig = fec.Config
	// FECScheme identifies a forward-error-correction code.
	FECScheme = fec.Scheme
	// FECStats reports one decode's coded-bit volume and corrected bits.
	FECStats = fec.Stats
	// DeliverOptions tunes the context-aware ARQ engine behind
	// Network.DeliverReliableContext: attempt budget and ACK redundancy.
	DeliverOptions = core.DeliverOptions
	// DeliveryReport is the full diagnostic record of one reliable delivery.
	DeliveryReport = core.DeliveryReport
	// AttemptReport is one ARQ attempt's entry in a DeliveryReport.
	AttemptReport = core.AttemptReport
	// LinkMode is one rung of the graceful-degradation ladder: a named
	// bundle of symbol width, FEC, preamble length and ACK redundancy.
	LinkMode = core.LinkMode
	// ControllerConfig assembles a LinkController.
	ControllerConfig = core.ControllerConfig
	// LinkController delivers payloads while adapting the link down (and
	// back up) a LinkMode ladder from per-delivery diagnostics, with a
	// per-node circuit breaker at the bottom rung.
	LinkController = core.LinkController
	// BreakerState is a node's circuit-breaker state inside a
	// LinkController.
	BreakerState = core.BreakerState
	// Fleet is the serving layer: it hosts many Networks with concurrent
	// submission, runs each call on its caller's goroutine at most Engines
	// at a time, and keeps aggregate telemetry. See the package-level
	// Fleet-vs-Network table.
	Fleet = core.Fleet
	// FleetConfig assembles a Fleet; the zero value selects a width of
	// GOMAXPROCS concurrent calls.
	FleetConfig = core.FleetConfig
	// FleetNetwork is one resident network of a Fleet: a concurrent-safe
	// handle mirroring Network's pipeline entry points.
	FleetNetwork = core.FleetNetwork
	// FrameSchedule partitions a deployment into frame groups so tags in
	// different groups reuse uplink FSK tone pairs (TDMA across frames).
	FrameSchedule = mac.FrameSchedule
	// ScheduledResult is the outcome of one full frame-schedule cycle.
	ScheduledResult = core.ScheduledResult
	// ExchangeID is the deterministic per-exchange identity derived from
	// (seed, network id, sequence number) — reproducible across runs, unique
	// within a deployment.
	ExchangeID = telemetry.ExchangeID
	// Trace is one exchange's causal span tree, collected by a Tracer
	// attached via WithTracer.
	Trace = telemetry.Trace
	// SpanNode is one node of a Trace: a named, timed pipeline stage.
	SpanNode = telemetry.SpanNode
	// Tracer keeps the most recent exchange Traces in a bounded lock-free
	// ring and records each trip (exchange error, circuit-breaker open, or
	// an explicit Trip call) in its dump; export the traces with
	// WriteTraceJSONL or WriteChromeTrace, the dump with WriteJSON.
	Tracer = telemetry.Tracer
	// DebugConfig selects which observability surfaces the debug HTTP
	// handler exposes (/metrics, /metrics.json, /debug/trace, /debug/flight,
	// /debug/pprof).
	DebugConfig = telemetry.DebugConfig
	// ExchangeRecord is a replayable capture of a network spec plus a
	// sequence of recorded exchanges; see NewExchangeRecorder and
	// ReplayRecord.
	ExchangeRecord = trace.ExchangeRecord
	// ExchangeRecorder wraps a fresh Network and captures every exchange
	// into an ExchangeRecord.
	ExchangeRecorder = core.ExchangeRecorder
	// ReplayReport is the outcome of ReplayRecord: round count and any
	// divergences from the recorded outcomes.
	ReplayReport = core.ReplayReport
	// ReplayMismatch is one divergence between a recorded exchange and its
	// replay.
	ReplayMismatch = core.ReplayMismatch
)

// Forward-error-correction schemes for FECConfig.
const (
	// FECNone disables coding; frames are byte-identical to the uncoded
	// pipeline.
	FECNone = fec.SchemeNone
	// FECHamming74 applies Hamming(7,4) single-error-correcting code.
	FECHamming74 = fec.SchemeHamming74
	// FECRepetition repeats every bit an odd number of times and decodes by
	// majority vote.
	FECRepetition = fec.SchemeRepetition
)

// Sentinel errors, for errors.Is branching.
var (
	// ErrNoNodes is returned by NewNetwork when the configuration places no
	// backscatter nodes.
	ErrNoNodes = core.ErrNoNodes
	// ErrToneBandExceeded is returned by NewNetwork when a node's uplink
	// tones fall at or above half the chirp rate.
	ErrToneBandExceeded = core.ErrToneBandExceeded
	// ErrTagNotFound is carried in a NodeResult when no range bin held the
	// node's modulation signature above the detection threshold.
	ErrTagNotFound = radar.ErrTagNotFound
	// ErrNodeQuarantined is returned by LinkController.Deliver while a
	// node's circuit breaker is open and not yet due for a probe.
	ErrNodeQuarantined = core.ErrNodeQuarantined
	// ErrNodeInactive is carried in a NodeResult for nodes scheduled out of
	// the current exchange round (WithActiveNodes or a frame-schedule
	// group): their switches held a static state, so there is nothing to
	// decode, detect or demodulate.
	ErrNodeInactive = core.ErrNodeInactive
	// ErrFleetClosed is returned by Fleet methods after Close.
	ErrFleetClosed = core.ErrFleetClosed
)

// NewNetwork builds a network from the configuration, then applies the
// functional options in order. At least one node is required; everything
// else has calibrated defaults.
func NewNetwork(cfg Config, opts ...Option) (*Network, error) {
	return core.NewNetwork(cfg, opts...)
}

// NewFleet builds a fleet Engines calls wide. defaults are NewNetwork
// options applied to every network the fleet builds, before the options
// given to AddNetwork — one Option set serves both levels.
func NewFleet(cfg FleetConfig, defaults ...Option) *Fleet {
	return core.NewFleet(cfg, defaults...)
}

// NewFrameSchedule partitions nTags into contiguous round-robin groups of
// at most capacity tags for WithSchedule; tags sharing a slot across groups
// reuse the same FSK tone pair.
func NewFrameSchedule(nTags, capacity int) (*FrameSchedule, error) {
	return mac.NewFrameSchedule(nTags, capacity)
}

// ScheduleFor builds the tightest FrameSchedule for nTags at the given
// chirp period and bit length, using the §7 slow-time tone budget as the
// per-frame capacity.
func ScheduleFor(nTags int, period float64, chirpsPerBit int) (*FrameSchedule, error) {
	return mac.ScheduleFor(nTags, period, chirpsPerBit)
}

// WithWorkers sizes the worker pool the exchange engine fans per-chirp,
// per-node and per-bin work across; non-positive (the default) selects
// GOMAXPROCS. Results are byte-identical for any worker count.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithPreset selects the radar platform preset.
func WithPreset(p Preset) Option { return core.WithPreset(p) }

// WithClutter replaces the static environment (an explicit empty slice
// selects a clutter-free scene).
func WithClutter(clutter []Reflector) Option { return core.WithClutter(clutter) }

// WithSeed roots every stochastic component of the network.
func WithSeed(seed int64) Option { return core.WithSeed(seed) }

// WithNodes places the backscatter nodes, replacing any already present in
// the Config.
func WithNodes(nodes ...NodeConfig) Option { return core.WithNodes(nodes...) }

// WithFaults applies an impairment profile to the whole network. Nil — or a
// profile with every impairment disabled — leaves all exchange results and
// telemetry byte-identical to a fault-free network.
func WithFaults(p *FaultProfile) Option { return core.WithFaults(p) }

// WithMetrics attaches a telemetry registry; read it any time with
// Network.Metrics() or Metrics.Snapshot(). A registry may be shared across
// networks to aggregate. Telemetry never influences exchange results.
func WithMetrics(m *Metrics) Option { return core.WithMetrics(m) }

// NewMetrics returns an empty telemetry registry for WithMetrics.
func NewMetrics() *Metrics { return telemetry.New() }

// NewTracer returns a trace collector for WithTracer retaining the last
// depth exchange traces (non-positive selects the default depth of 4096).
func NewTracer(depth int) *Tracer { return telemetry.NewTracer(depth) }

// WithTracer attaches a trace collector: every exchange produces a causal
// span tree covering frame build, per-node downlink decode, scene
// synthesis, radar observation, detection and uplink demodulation, and
// exchange errors and circuit-breaker openings trip its dump. With no
// tracer attached, the tracing path is fully disabled and allocation-free.
func WithTracer(t *Tracer) Option { return core.WithTracer(t) }

// WithNetworkID assigns the network identity mixed into every ExchangeID
// and stamped on traces. Fleet.AddNetwork assigns dense ids automatically.
func WithNetworkID(id int) Option { return core.WithNetworkID(id) }

// NewExchangeRecorder wraps a freshly built Network (no exchanges run yet)
// and records every subsequent rec.Exchange / rec.ExchangeScheduled round
// into a replayable ExchangeRecord.
func NewExchangeRecorder(n *Network) (*ExchangeRecorder, error) {
	return core.NewExchangeRecorder(n)
}

// ReplayRecord rebuilds the recorded network and re-runs every recorded
// round, comparing exchange IDs, errors and per-node outcomes bit-exactly
// against the record. Extra options (e.g. WithWorkers) may tune execution
// but must not change results.
func ReplayRecord(rec *ExchangeRecord, opts ...Option) (*ReplayReport, error) {
	return core.ReplayRecord(rec, opts...)
}

// SaveExchangeRecord writes an ExchangeRecord to a versioned binary file.
func SaveExchangeRecord(path string, rec *ExchangeRecord) error {
	return trace.SaveExchange(path, rec)
}

// LoadExchangeRecord reads an ExchangeRecord written by SaveExchangeRecord.
func LoadExchangeRecord(path string) (*ExchangeRecord, error) {
	return trace.LoadExchange(path)
}

// WithMinChirps pads a single exchange's downlink frame to at least n
// chirps for extra slow-time integration gain.
func WithMinChirps(n int) ExchangeOption { return core.WithMinChirps(n) }

// WithSchedule attaches a multi-tag frame schedule: FSK tone pairs are
// assigned per schedule slot (so the deployment can exceed the slow-time
// tone budget) and ExchangeScheduled serves every frame group over one
// cycle. The schedule must cover exactly the configured node count.
func WithSchedule(s *FrameSchedule) Option { return core.WithSchedule(s) }

// WithActiveNodes restricts one exchange round to the listed node indices;
// the rest hold a static switch state and carry ErrNodeInactive in their
// NodeResult.
func WithActiveNodes(idx ...int) ExchangeOption { return core.WithActiveNodes(idx...) }

// WithFEC applies forward error correction to every downlink frame. The
// zero FECConfig (FECNone) leaves frames byte-identical to the uncoded
// pipeline.
func WithFEC(c FECConfig) Option { return core.WithFEC(c) }

// WithPreamble sizes the downlink frame preamble: headerChirps of carrier
// header and syncChirps of sync symbols. Longer preambles buy
// synchronization margin under interference at an airtime cost.
func WithPreamble(headerChirps, syncChirps int) Option {
	return core.WithPreamble(headerChirps, syncChirps)
}

// WithLinkMode applies one rung of a degradation ladder — symbol width,
// FEC, preamble and ACK redundancy together — to the network.
func WithLinkMode(m LinkMode) Option { return core.WithLinkMode(m) }

// DefaultModeLadder returns the graceful-degradation ladder every
// LinkController walks, from the full-rate nominal mode down to the
// survival mode. Pass one of its rungs to WithLinkMode to pin a mode.
func DefaultModeLadder() []LinkMode { return core.DefaultModeLadder() }

// NewLinkController builds the adaptive delivery engine: reliable delivery
// over the mode ladder with per-node circuit breaking. See
// LinkController.Deliver.
func NewLinkController(cfg ControllerConfig) (*LinkController, error) {
	return core.NewLinkController(cfg)
}

// Radar9GHz returns the paper's sub-10 GHz platform preset (1 GHz
// bandwidth).
func Radar9GHz() Preset { return fmcw.Radar9GHz() }

// Radar24GHz returns the paper's mmWave platform preset (ADI TinyRad-like,
// 250 MHz bandwidth).
func Radar24GHz() Preset { return fmcw.Radar24GHz() }

// DefaultLink returns the link budget calibrated to the paper's 9 GHz
// prototype.
func DefaultLink() Link { return channel.DefaultLink() }

// DefaultPowerModel returns the §4.1 component power figures.
func DefaultPowerModel() PowerModel { return tag.DefaultPowerModel() }

// RandomPayload generates a deterministic pseudo-random payload for
// experiments.
func RandomPayload(seed int64, n int) []byte { return core.RandomPayload(seed, n) }

// CountBitErrors compares two payloads bit by bit. The total spans
// max(len(sent), len(got)) bytes: bytes missing from got count fully as
// errors, and so do extra trailing bytes in got — a decode that returns
// more bytes than were sent is not error-free.
func CountBitErrors(sent, got []byte) (errs, total int) {
	return core.CountBitErrors(sent, got)
}
