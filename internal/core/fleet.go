package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"biscatter/internal/telemetry"
)

// FleetConfig assembles a Fleet. The zero value selects the calibrated
// defaults; network-level configuration is NOT here — it arrives through
// the same Config + functional Option set NewNetwork takes, as fleet-wide
// defaults on NewFleet and per-network settings on AddNetwork.
type FleetConfig struct {
	// Engines is the fleet's concurrency width: at most this many calls,
	// on different networks, run at once. Each call runs on its caller's
	// goroutine. Non-positive selects GOMAXPROCS.
	Engines int
	// Metrics receives the fleet's aggregate telemetry (queue-wait and
	// latency histograms, busy-engine gauge, per-network counters) and is
	// shared with every network the fleet builds, so per-stage pipeline
	// metrics aggregate fleet-wide. Nil disables collection.
	Metrics *telemetry.Metrics
	// Tracer collects exchange span trees and trips from every network the
	// fleet builds (trace Network fields carry the fleet-assigned ids, so
	// the shared stream stays attributable); nil disables tracing.
	Tracer *telemetry.Tracer
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Engines <= 0 {
		c.Engines = runtime.GOMAXPROCS(0)
	}
	return c
}

// fleetTel holds the fleet's pre-resolved telemetry handles; the zero value
// is the disabled state (all methods no-op).
type fleetTel struct {
	m         *telemetry.Metrics
	queueWait *telemetry.Histogram // fleet.queue_wait.seconds: submit → turn and width slot held
	latency   *telemetry.Histogram // fleet.latency.seconds: submit → done
	busy      *telemetry.Gauge     // fleet.busy_engines: calls holding a width slot
	engines   *telemetry.Gauge     // fleet.engines (static width)
	networks  *telemetry.Gauge     // fleet.networks (resident count)
	requests  *telemetry.Counter   // fleet.requests (completed submissions)
	rejected  *telemetry.Counter   // fleet.rejected (context done before the call ran)
}

func newFleetTel(m *telemetry.Metrics) fleetTel {
	if m == nil {
		return fleetTel{}
	}
	return fleetTel{
		m:         m,
		queueWait: m.Histogram("fleet.queue_wait.seconds"),
		latency:   m.Histogram("fleet.latency.seconds"),
		busy:      m.Gauge("fleet.busy_engines"),
		engines:   m.Gauge("fleet.engines"),
		networks:  m.Gauge("fleet.networks"),
		requests:  m.Counter("fleet.requests"),
		rejected:  m.Counter("fleet.rejected"),
	}
}

func (t fleetTel) enabled() bool { return t.m != nil }

// Fleet is the serving layer over many independent Networks in one
// process: it runs their Exchange / Localize / MapEnvironment calls at most
// Engines at a time, one at a time per network, with aggregate telemetry.
//
// # Concurrency contract
//
// A Fleet is safe for concurrent use by any number of goroutines — that is
// its purpose. Every call runs on its caller's goroutine once it holds its
// network's turn and one of the fleet's width slots, so each resident
// network is driven serially and its results are byte-identical to the
// same call sequence on a standalone Network with the same seed. Results
// still follow the Network ownership contract, scoped per network:
// slice-typed outputs are valid until the next call on the same
// FleetNetwork. Calls on different FleetNetworks never invalidate each
// other.
//
// Backpressure: a call waits for its network's turn, then for a width
// slot, until ctx is done — so callers choose reject-or-wait by deadline:
// a context without a deadline waits, one with a deadline rejects with
// ctx.Err() when it expires before the call starts. Rejections count into
// fleet.rejected. A call never holds a width slot while it waits for a
// busy network.
type Fleet struct {
	cfg      FleetConfig
	defaults []Option
	tel      fleetTel

	// slots holds one token per running call; its capacity is the width.
	slots chan struct{}

	// mu orders admission against Close: a call is admitted, and counted
	// into calls, under the read side only while the fleet is open, so
	// Close's wait covers every call admitted before it.
	mu       sync.RWMutex
	closed   bool
	networks int
	calls    sync.WaitGroup
}

// NewFleet builds a fleet of the given width. defaults are NewNetwork
// options applied to every network the fleet builds, before the options
// given to AddNetwork — the same functional Option set NewNetwork accepts,
// so fleet-wide policy (WithPreset, WithWorkers, WithFaults, ...) and
// per-network overrides share one plumbing.
func NewFleet(cfg FleetConfig, defaults ...Option) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:      cfg,
		defaults: defaults,
		tel:      newFleetTel(cfg.Metrics),
		slots:    make(chan struct{}, cfg.Engines),
	}
	f.tel.engines.Set(float64(cfg.Engines))
	return f
}

// admit counts a call into calls unless the fleet is closed.
func (f *Fleet) admit() error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrFleetClosed
	}
	f.calls.Add(1)
	return nil
}

// AddNetwork builds a network from the configuration, the fleet defaults
// and the per-network options (fleet defaults run first, so per-network
// options override them). The fleet's metrics registry and tracer are
// attached ahead of the option list, so an explicit WithMetrics still wins.
func (f *Fleet) AddNetwork(cfg Config, opts ...Option) (*FleetNetwork, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFleetClosed
	}
	id := f.networks
	f.networks++
	f.mu.Unlock()

	all := make([]Option, 0, len(f.defaults)+len(opts)+3)
	if f.cfg.Metrics != nil {
		all = append(all, WithMetrics(f.cfg.Metrics))
	}
	if f.cfg.Tracer != nil {
		all = append(all, WithTracer(f.cfg.Tracer))
	}
	all = append(all, f.defaults...)
	all = append(all, opts...)
	// The fleet-assigned dense id always wins: it is what keys the shared
	// tracer's stream.
	all = append(all, WithNetworkID(id))
	net, err := NewNetwork(cfg, all...)
	if err != nil {
		return nil, fmt.Errorf("core: fleet network %d: %w", id, err)
	}
	fn := &FleetNetwork{
		fleet: f,
		turn:  make(chan struct{}, 1),
		net:   net,
		id:    id,
	}
	if f.tel.enabled() {
		f.tel.networks.Add(1)
		p := "fleet.network." + strconv.Itoa(id)
		fn.requests = f.tel.m.Counter(p + ".requests")
		fn.errors = f.tel.m.Counter(p + ".errors")
	}
	return fn, nil
}

// Engines returns the fleet's concurrency width.
func (f *Fleet) Engines() int { return cap(f.slots) }

// Networks returns the number of resident networks.
func (f *Fleet) Networks() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.networks
}

// Metrics returns a point-in-time snapshot of the fleet's telemetry
// registry: fleet.* scheduling metrics plus the aggregated per-stage
// pipeline metrics of every resident network. Empty when the fleet was
// built without a registry.
func (f *Fleet) Metrics() telemetry.Snapshot { return f.tel.m.Snapshot() }

// Close stops the fleet: calls admitted before it still run, later calls
// and AddNetwork fail with ErrFleetClosed, and Close returns once every
// admitted call has returned. Closing an already-closed fleet is a no-op.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.calls.Wait()
}

// FleetNetwork is one resident network of a Fleet: a handle whose Exchange
// and Do run the network's calls one at a time. The handle is safe for
// concurrent use; concurrent calls on the same handle take the network's
// turn in arrival order (results follow the per-network ownership contract
// — valid until the handle's next call).
type FleetNetwork struct {
	fleet *Fleet
	turn  chan struct{} // one slot: held by the network's running call
	net   *Network
	id    int

	requests *telemetry.Counter // fleet.network.<id>.requests
	errors   *telemetry.Counter // fleet.network.<id>.errors
}

// ID returns the network's fleet-assigned identifier (dense, in AddNetwork
// order); telemetry counters are published under fleet.network.<id>.
func (fn *FleetNetwork) ID() int { return fn.id }

// Network returns the underlying network for configuration inspection
// (Config, Alphabet, DownlinkDataRate, ...). Do NOT call pipeline methods
// (Exchange, Localize, ...) on it directly while the fleet serves it — that
// would race the network's fleet calls; go through Exchange or Do instead.
func (fn *FleetNetwork) Network() *Network { return fn.net }

// Do runs f on the caller's goroutine once it holds the network's turn and
// a fleet width slot, serialized with the network's other calls — the way
// to run any pipeline call other than a plain Exchange (a scheduled cycle,
// a sensing round, a GatewayMux driving an ExchangeRecorder against the
// resident network). f receives the resident network; everything it
// produces follows the per-network ownership contract (valid until the
// handle's next call). ctx bounds both waits; once f runs, it sees ctx
// itself. The returned error is f's own unless scheduling failed (context
// done, fleet closed).
func (fn *FleetNetwork) Do(ctx context.Context, f func(ctx context.Context, n *Network) error) (err error) {
	defer fn.outcome(&err)
	fl := fn.fleet
	if err := ctx.Err(); err != nil {
		fl.tel.rejected.Inc()
		return err
	}
	if err := fl.admit(); err != nil {
		return err
	}
	defer fl.calls.Done()
	var start time.Time
	if fl.tel.enabled() {
		start = time.Now()
	}
	select {
	case fn.turn <- struct{}{}:
		defer func() { <-fn.turn }()
	case <-ctx.Done():
		fl.tel.rejected.Inc()
		return ctx.Err()
	}
	select {
	case fl.slots <- struct{}{}:
		defer func() { <-fl.slots }()
	case <-ctx.Done():
		fl.tel.rejected.Inc()
		return ctx.Err()
	}
	if fl.tel.enabled() {
		fl.tel.queueWait.Observe(time.Since(start).Seconds())
	}
	fl.tel.busy.Add(1)
	sp := fl.tel.m.Span("fleet.service")
	err = f(ctx, fn.net)
	sp.End()
	fl.tel.busy.Add(-1)
	if fl.tel.enabled() {
		fl.tel.latency.Observe(time.Since(start).Seconds())
	}
	fl.tel.requests.Inc()
	return err
}

// outcome tallies one request's per-network counters.
func (fn *FleetNetwork) outcome(err *error) {
	fn.requests.Inc()
	if *err != nil {
		fn.errors.Inc()
	}
}

// ExchangeContext runs one integrated ISAC round on the network and returns
// its result; see Network.ExchangeContext for the round semantics. It waits
// for the network's turn and a width slot (backpressure — bound it with a
// context deadline); ctx also cancels the round itself cooperatively once
// it runs.
func (fn *FleetNetwork) ExchangeContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (res *ExchangeResult, err error) {
	err = fn.Do(ctx, func(ctx context.Context, n *Network) (err error) {
		res, err = n.ExchangeContext(ctx, payload, uplinkBits, opts...)
		return err
	})
	return res, err
}

// Exchange is ExchangeContext with a background context: it waits for the
// network's turn and a width slot indefinitely.
func (fn *FleetNetwork) Exchange(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ExchangeResult, error) {
	return fn.ExchangeContext(context.Background(), payload, uplinkBits, opts...)
}
