package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"biscatter/internal/fec"
	"biscatter/internal/retry"
)

// ErrNodeQuarantined means the link controller's circuit breaker has the
// node open: the radar spends no airtime on it until the next half-open
// probe slot.
var ErrNodeQuarantined = errors.New("core: node quarantined by circuit breaker")

// LinkMode is one rung of the controller's degradation ladder: a coherent
// set of physical-layer knobs — symbol width (fewer bits = wider slope
// spacing), FEC scheme, preamble length, and acknowledgment redundancy —
// that trade data rate for robustness together.
type LinkMode struct {
	// Name labels the mode in telemetry and reports.
	Name string
	// SymbolBits is the CSSK symbol width; zero keeps the base config's.
	SymbolBits int
	// FEC is the downlink coding layer for this mode.
	FEC fec.Config
	// HeaderChirps/SyncChirps size the downlink preamble; zero keeps the
	// base config's.
	HeaderChirps int
	SyncChirps   int
	// AckBits is the ARQ acknowledgment redundancy while in this mode;
	// zero keeps the delivery options' value.
	AckBits int
}

// apply overlays the mode's non-zero knobs on a network configuration.
func (m LinkMode) apply(c *Config) {
	if m.SymbolBits != 0 {
		c.SymbolBits = m.SymbolBits
	}
	c.FEC = m.FEC
	if m.HeaderChirps != 0 {
		c.HeaderChirps = m.HeaderChirps
	}
	if m.SyncChirps != 0 {
		c.SyncChirps = m.SyncChirps
	}
}

// DefaultModeLadder is the calibrated degradation sequence. Each rung gives
// up data rate for a different robustness mechanism, in the order the
// fault scenarios show them paying off: coding first (cheap, fixes
// scattered errors), then wider slope spacing + interleaved coding (jam
// bursts), then repetition + the longest preamble (survival mode: the
// preamble itself must outlive the bursts).
func DefaultModeLadder() []LinkMode {
	return []LinkMode{
		{Name: "nominal", SymbolBits: 5, AckBits: 3},
		{Name: "coded", SymbolBits: 5, AckBits: 3,
			FEC: fec.Config{Scheme: fec.SchemeHamming74, InterleaveDepth: 14}},
		{Name: "robust", SymbolBits: 4, AckBits: 5, HeaderChirps: 12, SyncChirps: 3,
			FEC: fec.Config{Scheme: fec.SchemeHamming74, InterleaveDepth: 28}},
		{Name: "survival", SymbolBits: 3, AckBits: 7, HeaderChirps: 16, SyncChirps: 4,
			FEC: fec.Config{Scheme: fec.SchemeRepetition, Repeat: 3, InterleaveDepth: 56}},
	}
}

// BreakerState is a node's circuit-breaker position.
type BreakerState = retry.BreakerState

const (
	// BreakerClosed: the node is healthy; deliveries flow normally.
	BreakerClosed = retry.Closed
	// BreakerOpen: the node is quarantined; deliveries fail fast with
	// ErrNodeQuarantined until the next probe slot.
	BreakerOpen = retry.Open
	// BreakerHalfOpen: the next delivery is a single-attempt probe; success
	// closes the breaker, failure reopens it.
	BreakerHalfOpen = retry.HalfOpen
)

// modeLadder is the ladder every controller walks.
var modeLadder = DefaultModeLadder()

// The controller's tuning over modeLadder.
const (
	// degradeAfter is how many consecutive failed deliveries trigger a step
	// down the ladder (a delivery already retries internally, so one
	// exhausted ARQ sequence is strong evidence).
	degradeAfter = 1
	// recoverAfter is how many consecutive clean deliveries — first
	// attempt, no FEC corrections — trigger a step back up. Recovery is
	// deliberately slower than degradation.
	recoverAfter = 8
	// breakerThreshold is how many consecutive failed deliveries to one
	// node while already at the deepest mode open its breaker.
	breakerThreshold = 3
	// probeInterval is how many quarantined delivery slots a node sits out
	// before the breaker goes half-open and risks one probe.
	probeInterval = 4
)

// ControllerConfig parameterizes the link controller.
type ControllerConfig struct {
	// Network is the base network configuration; the active mode overlays
	// its symbol-width / FEC / preamble knobs.
	Network Config
	// Deliver is the base ARQ configuration; the active mode's AckBits
	// overrides the redundancy.
	Deliver DeliverOptions
}

// breaker tracks one node's quarantine state: the shared breaker counts
// consecutive failed deliveries at the deepest mode, and idleSlots the
// delivery slots sat out while open.
type breaker struct {
	retry.Breaker
	idleSlots int
}

// LinkController closes the loop over the fault layer: it watches the
// worker-invariant per-delivery diagnostics (downlink decode outcomes and
// FEC correction counts from DownlinkDiag, acknowledgment readability from
// the uplink path) and moves the network along the mode ladder — degrading
// after failed deliveries, recovering after sustained clean ones — and
// finally quarantines a persistently failing node behind a per-node circuit
// breaker with half-open probes.
//
// Every decision input is byte-identical at any worker count, so the
// controller's trajectory is too. Telemetry (mode transitions, breaker
// events, the current level gauge) is written through the network's metrics
// registry but never feeds back into decisions.
type LinkController struct {
	cfg      ControllerConfig
	opts     []Option
	net      *Network
	level    int
	okStreak int // consecutive clean deliveries across the link
	failRun  int // consecutive failed deliveries across the link
	breakers []breaker
}

// NewLinkController builds the controller and its initial network at the
// top (fastest) mode. Extra options pass through to every network rebuild,
// before the mode overlay — the mode always wins on the knobs it names.
func NewLinkController(cfg ControllerConfig, opts ...Option) (*LinkController, error) {
	lc := &LinkController{cfg: cfg, opts: opts}
	if err := lc.rebuild(); err != nil {
		return nil, err
	}
	lc.breakers = make([]breaker, len(lc.net.nodes))
	return lc, nil
}

// rebuild constructs the network for the current level. The metrics
// registry, recorder, seed and workers all live in the base config, so they
// carry across rebuilds (counters keep accumulating in the shared registry).
func (lc *LinkController) rebuild() error {
	mode := modeLadder[lc.level]
	opts := make([]Option, 0, len(lc.opts)+1)
	opts = append(opts, lc.opts...)
	opts = append(opts, WithLinkMode(mode))
	net, err := NewNetwork(lc.cfg.Network, opts...)
	if err != nil {
		return fmt.Errorf("core: rebuilding at mode %q: %w", mode.Name, err)
	}
	// Carry the exchange sequence across the rebuild so exchange IDs stay
	// unique over the controller's lifetime (the tracer also rides along,
	// via the base config).
	if lc.net != nil {
		net.seq = lc.net.seq
	}
	lc.net = net
	if m := net.cfg.Metrics; m != nil {
		m.Gauge("core.recovery.level").Set(float64(lc.level))
	}
	return nil
}

// Network returns the controller's current network (replaced on every mode
// transition — do not cache across deliveries).
func (lc *LinkController) Network() *Network { return lc.net }

// Level returns the current ladder index (0 = fastest mode).
func (lc *LinkController) Level() int { return lc.level }

// Mode returns the active mode.
func (lc *LinkController) Mode() LinkMode { return modeLadder[lc.level] }

// NodeState returns a node's circuit-breaker position.
func (lc *LinkController) NodeState(nodeIdx int) BreakerState {
	if nodeIdx < 0 || nodeIdx >= len(lc.breakers) {
		return BreakerClosed
	}
	return lc.breakers[nodeIdx].State
}

// deliverOptions is the ARQ configuration for the current mode.
func (lc *LinkController) deliverOptions() DeliverOptions {
	o := lc.cfg.Deliver
	if ab := lc.Mode().AckBits; ab != 0 {
		o.AckBits = ab
	}
	return o
}

// counter bumps a recovery counter when metrics are attached.
func (lc *LinkController) counter(name string) {
	if m := lc.net.cfg.Metrics; m != nil {
		m.Counter(name).Inc()
	}
}

// Deliver runs one reliable delivery through the adaptive machinery:
// breaker gate, mode-configured ARQ, then the degradation/recovery update.
// A quarantined node fails fast with ErrNodeQuarantined and consumes no
// airtime; every probeInterval-th quarantined slot instead risks a
// single-attempt half-open probe.
func (lc *LinkController) Deliver(ctx context.Context, nodeIdx int, payload []byte) (DeliveryReport, error) {
	if nodeIdx < 0 || nodeIdx >= len(lc.breakers) {
		return DeliveryReport{}, fmt.Errorf("core: node index %d out of range", nodeIdx)
	}
	br := &lc.breakers[nodeIdx]
	opts := lc.deliverOptions()
	if br.State == BreakerOpen {
		br.idleSlots++
		if br.idleSlots < probeInterval {
			return DeliveryReport{}, ErrNodeQuarantined
		}
		br.Probe()
		br.idleSlots = 0
		lc.counter("core.recovery.breaker.probe")
	}
	probing := br.State == BreakerHalfOpen
	if probing {
		opts.MaxAttempts = 1 // a probe risks one attempt, not a full ARQ run
	}

	rep, err := lc.net.DeliverReliableContext(ctx, nodeIdx, payload, opts)
	if err != nil {
		return rep, err
	}

	if probing {
		if rep.Delivered {
			br.Succeed()
			lc.counter("core.recovery.breaker.close")
		} else {
			br.Fail(breakerThreshold)
			lc.counter("core.recovery.breaker.reopen")
			lc.net.tracer.Trip("breaker reopen: node " + strconv.Itoa(nodeIdx))
		}
		return rep, nil
	}
	lc.observe(nodeIdx, rep)
	return rep, nil
}

// observe updates the controller state from one delivery's diagnostics.
func (lc *LinkController) observe(nodeIdx int, rep DeliveryReport) {
	br := &lc.breakers[nodeIdx]
	atBottom := lc.level == len(modeLadder)-1
	if rep.Delivered {
		br.Succeed()
		lc.failRun = 0
		// Only a clean delivery — first attempt, zero repaired bits —
		// argues the channel could afford a faster mode. A delivery that
		// needed retries or FEC corrections is the link telling us the
		// current mode is earning its keep.
		clean := rep.Attempts == 1 && len(rep.AttemptLog) > 0 &&
			rep.AttemptLog[0].FECCorrectedBits == 0
		if clean {
			lc.okStreak++
			if lc.okStreak >= recoverAfter && lc.level > 0 {
				lc.level--
				lc.okStreak = 0
				lc.counter("core.recovery.recover")
				if err := lc.rebuild(); err != nil {
					// The previous mode built fine; stepping back cannot
					// fail. Keep the old network if it somehow does.
					lc.level++
				}
			}
		} else {
			lc.okStreak = 0
		}
		return
	}
	// Failed delivery: degrade, and track per-node persistence.
	lc.okStreak = 0
	lc.failRun++
	if !atBottom && lc.failRun >= degradeAfter {
		lc.level++
		lc.failRun = 0
		lc.counter("core.recovery.degrade")
		if err := lc.rebuild(); err != nil {
			lc.level--
		}
		return
	}
	if atBottom {
		if br.Fail(breakerThreshold) {
			br.idleSlots = 0
			lc.counter("core.recovery.breaker.open")
			// Quarantining a node is exactly the moment the recent exchange
			// history matters: mark it in the tracer's black box.
			lc.net.tracer.Trip("breaker open: node " + strconv.Itoa(nodeIdx))
		}
	}
}
