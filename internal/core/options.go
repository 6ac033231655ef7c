package core

import (
	"biscatter/internal/channel"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/mac"
	"biscatter/internal/telemetry"
)

// Option is a functional option for NewNetwork. Options run after the
// Config struct is copied and before defaults are applied, so they compose
// with the struct path: a zero Config plus options is equivalent to filling
// the corresponding fields, and an option overrides the field it names.
type Option func(*Config)

// WithWorkers sizes the worker pool that the exchange engine fans its
// per-chirp, per-node and per-bin work across. Non-positive (the default)
// selects GOMAXPROCS. Results are byte-identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithPreset selects the radar platform preset.
func WithPreset(p fmcw.Preset) Option {
	return func(c *Config) { c.Preset = p }
}

// WithClutter replaces the static environment. An explicit empty (but
// non-nil) slice selects a clutter-free scene; nil keeps the office
// default.
func WithClutter(clutter []channel.Reflector) Option {
	return func(c *Config) { c.Clutter = clutter }
}

// WithSeed roots every stochastic component of the network.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithNodes places the backscatter nodes, replacing any nodes already in
// the Config.
func WithNodes(nodes ...NodeConfig) Option {
	return func(c *Config) { c.Nodes = nodes }
}

// WithFaults applies an impairment profile to the whole network: burst
// in-band interference, chirp dropouts, moving clutter, and per-tag
// front-end degradations (oscillator drift, ADC saturation, desync). Nil —
// or a profile with every impairment disabled — leaves all exchange results
// and telemetry byte-identical to a fault-free network; see the fault
// package for the determinism contract.
func WithFaults(p *fault.Profile) Option {
	return func(c *Config) { c.Faults = p }
}

// WithFEC selects the downlink forward-error-correction layer. The zero
// config (fec.SchemeNone) keeps on-air frames byte-identical to a build
// without FEC.
func WithFEC(fc fec.Config) Option {
	return func(c *Config) { c.FEC = fc }
}

// WithPreamble sizes the downlink preamble: header chirps (period
// estimation) and sync chirps (payload start marker). Longer preambles
// survive jammed chirps at the cost of airtime. Zero keeps the default
// (8 header, 2 sync).
func WithPreamble(headerChirps, syncChirps int) Option {
	return func(c *Config) {
		c.HeaderChirps = headerChirps
		c.SyncChirps = syncChirps
	}
}

// WithLinkMode applies a link controller operating mode to the
// configuration — symbol width, FEC, and preamble in one step. It is how
// the controller rebuilds a network at a new degradation level, exported so
// experiments can pin a fixed mode.
func WithLinkMode(m LinkMode) Option {
	return func(c *Config) { m.apply(c) }
}

// WithMetrics attaches a telemetry registry: per-stage latency histograms,
// per-node outcome counters, BER tallies, detection gauges and worker-pool
// statistics, readable at any time via Network.Metrics(). A registry may be
// shared across networks to aggregate. Nil disables collection (the
// default); telemetry never influences exchange results.
func WithMetrics(m *telemetry.Metrics) Option {
	return func(c *Config) { c.Metrics = m }
}

// WithTracer attaches an exchange tracer: every Exchange round produces a
// causal span tree (frame build, per-node downlink decodes, radar observe
// and IF correction, detection, per-node uplink demods) under a
// deterministic ExchangeID, collected into t's ring and exportable as JSONL
// or Chrome trace_event; an exchange failure or a link controller's circuit
// breaker opening is recorded as a trip in t's dump. Nil keeps tracing off
// — the default, and free.
func WithTracer(t *telemetry.Tracer) Option {
	return func(c *Config) { c.Tracer = t }
}

// WithNetworkID sets the network identity stamped into exchange IDs and
// traces. The Fleet applies its dense id automatically.
func WithNetworkID(id int) Option {
	return func(c *Config) { c.NetworkID = id }
}

// WithSchedule attaches a multi-tag frame schedule: auto-assigned FSK pairs
// are allocated per schedule slot (so tags in different frame groups reuse
// tones and the deployment can exceed the tone grid), and ExchangeScheduled
// serves every group over one cycle. The schedule must cover exactly the
// configured node count.
func WithSchedule(s *mac.FrameSchedule) Option {
	return func(c *Config) { c.Schedule = s }
}

// exchangeOptions collects the per-round knobs of one Exchange call.
type exchangeOptions struct {
	minChirps int
	// active lists the node indices that modulate this round; nil selects
	// every node.
	active []int
}

// collectExchangeOptions applies opts in order.
func collectExchangeOptions(opts []ExchangeOption) exchangeOptions {
	var eo exchangeOptions
	for _, opt := range opts {
		opt(&eo)
	}
	return eo
}

// ExchangeOption customizes a single Exchange/ExchangeContext round
// without touching the network configuration.
type ExchangeOption func(*exchangeOptions)

// WithMinChirps pads the downlink frame with header-slope chirps until it
// spans at least n chirps, on top of what the payload and the uplink bit
// windows already require. Longer frames buy slow-time integration gain
// for localization at the cost of airtime.
func WithMinChirps(n int) ExchangeOption {
	return func(o *exchangeOptions) {
		if n > o.minChirps {
			o.minChirps = n
		}
	}
}

// WithActiveNodes restricts one exchange round to the listed node indices:
// only they decode the downlink, modulate the uplink and are searched for.
// The other nodes hold a static switch state (their NodeResult carries
// ErrNodeInactive) — the per-frame picture of a mac.FrameSchedule group,
// exposed for callers that run their own scheduling. The slice is retained
// for the duration of the round; out-of-range indices are ignored.
func WithActiveNodes(idx ...int) ExchangeOption {
	return func(o *exchangeOptions) { o.active = idx }
}
