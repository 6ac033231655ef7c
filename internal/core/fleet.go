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
	// Engines is the number of exchange engines — the fleet's concurrency
	// width. Each engine is one goroutine that drives its resident
	// networks serially, honoring the single-threaded Network contract.
	// Non-positive selects GOMAXPROCS.
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

// fleetQueueDepth bounds each engine's request queue. A submit against a
// full queue waits until a slot frees or the caller's context expires
// (reject-or-wait backpressure via context deadlines).
const fleetQueueDepth = 16

// fleetReq is one unit of engine work: a closure run on the owning engine's
// goroutine. done is closed after run returns; the submitter blocks on it,
// which is the happens-before edge that hands the results back.
type fleetReq struct {
	ctx  context.Context
	run  func(ctx context.Context)
	done chan struct{}
	enq  time.Time
}

// engine is one serially-driven exchange lane: a goroutine plus the bounded
// queue feeding it. Networks are pinned to engines, so every network's
// requests execute in submission order on a single goroutine — the fleet's
// way of honoring the Network single-threaded contract while many networks
// make progress concurrently.
type engine struct {
	id    int
	queue chan *fleetReq
}

// fleetTel holds the fleet's pre-resolved telemetry handles; the zero value
// is the disabled state (all methods no-op).
type fleetTel struct {
	m         *telemetry.Metrics
	queueWait *telemetry.Histogram // fleet.queue_wait.seconds: enqueue → claim
	latency   *telemetry.Histogram // fleet.latency.seconds: submit → done
	busy      *telemetry.Gauge     // fleet.busy_engines
	engines   *telemetry.Gauge     // fleet.engines (static width)
	networks  *telemetry.Gauge     // fleet.networks (resident count)
	requests  *telemetry.Counter   // fleet.requests (completed submissions)
	rejected  *telemetry.Counter   // fleet.rejected (backpressure/deadline)
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

// Fleet is the serving layer over a pool of exchange engines: it hosts many
// independent Networks in one process and schedules their Exchange /
// Localize / MapEnvironment calls across N engines with per-network
// isolation, bounded queues and aggregate telemetry.
//
// # Concurrency contract
//
// A Fleet is safe for concurrent use by any number of goroutines — that is
// its purpose. Each resident network is pinned to one engine and driven
// serially in submission order, so per-network results are byte-identical
// to the same call sequence on a standalone Network with the same seed.
// Results still follow the Network ownership contract, scoped per network:
// slice-typed outputs are valid until the next call on the same
// FleetNetwork. Calls on different FleetNetworks never invalidate each
// other.
//
// Backpressure: every engine queue is bounded (fleetQueueDepth).
// When a network's engine queue is full, submission blocks until a slot
// frees or ctx is done — so callers choose reject-or-wait by deadline:
// a context without a deadline waits, one with a deadline rejects with
// ctx.Err() when it expires. Rejections count into fleet.rejected.
type Fleet struct {
	cfg      FleetConfig
	defaults []Option
	engines  []*engine
	tel      fleetTel

	// mu serializes submissions against Close: submitters hold it (read
	// side) for the enqueue only — never while waiting for the result — so
	// Close can take the write side once every in-flight enqueue resolved,
	// mark the fleet closed and close the queues without racing a send.
	mu       sync.RWMutex
	closed   bool
	networks int

	wg sync.WaitGroup
}

// NewFleet builds a fleet of exchange engines. defaults are NewNetwork
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
	}
	f.tel.engines.Set(float64(cfg.Engines))
	for i := 0; i < cfg.Engines; i++ {
		e := &engine{id: i, queue: make(chan *fleetReq, fleetQueueDepth)}
		f.engines = append(f.engines, e)
		f.wg.Add(1)
		go f.engineLoop(e)
	}
	return f
}

// engineLoop drains one engine's queue until Close closes it. Each request
// runs to completion before the next is claimed; the busy gauge counts
// engines currently inside a request.
func (f *Fleet) engineLoop(e *engine) {
	defer f.wg.Done()
	for req := range e.queue {
		if f.tel.enabled() {
			f.tel.queueWait.Observe(time.Since(req.enq).Seconds())
		}
		f.tel.busy.Add(1)
		sp := f.tel.m.Span("fleet.service")
		req.run(req.ctx)
		sp.End()
		f.tel.busy.Add(-1)
		close(req.done)
	}
}

// do schedules run on the engine and waits for it to finish. The enqueue
// respects the bounded queue: a full queue blocks until a slot frees or ctx
// is done. Once enqueued, the request always runs (run sees ctx and returns
// promptly when it is already cancelled), so results never race a
// mid-flight abandonment.
func (f *Fleet) do(ctx context.Context, e *engine, run func(ctx context.Context)) error {
	if err := ctx.Err(); err != nil {
		f.tel.rejected.Inc()
		return err
	}
	req := &fleetReq{ctx: ctx, run: run, done: make(chan struct{})}
	if f.tel.enabled() {
		req.enq = time.Now()
	}
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return ErrFleetClosed
	}
	select {
	case e.queue <- req:
		f.mu.RUnlock()
	case <-ctx.Done():
		f.mu.RUnlock()
		f.tel.rejected.Inc()
		return ctx.Err()
	}
	<-req.done
	if f.tel.enabled() {
		f.tel.latency.Observe(time.Since(req.enq).Seconds())
	}
	f.tel.requests.Inc()
	return nil
}

// AddNetwork builds a network from the configuration, the fleet defaults
// and the per-network options (fleet defaults run first, so per-network
// options override them), and pins it to an engine round-robin. The fleet's
// metrics registry and tracer are attached ahead of the option list, so an
// explicit WithMetrics still wins.
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
		eng:   f.engines[id%len(f.engines)],
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
func (f *Fleet) Engines() int { return len(f.engines) }

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

// Close drains and stops the fleet: queued requests run to completion, new
// submissions fail with ErrFleetClosed, and Close returns once every engine
// goroutine has exited. Closing an already-closed fleet is a no-op.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for _, e := range f.engines {
		close(e.queue)
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// FleetNetwork is one resident network of a Fleet: a handle whose Exchange
// and Do run on the network's engine, serialized with the network's other
// requests. The handle is safe for concurrent use; concurrent calls on the
// same handle are run one at a time in queue order (results follow the
// per-network ownership contract — valid until the handle's next call).
type FleetNetwork struct {
	fleet *Fleet
	eng   *engine
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
// would race the engine; go through Exchange or Do instead.
func (fn *FleetNetwork) Network() *Network { return fn.net }

// Do runs f on the network's engine, serialized with the network's other
// requests — the way to run any pipeline call other than a plain Exchange
// (a scheduled cycle, a sensing round, a GatewayMux driving an
// ExchangeRecorder against the resident network) with engine affinity. f
// receives the resident network; everything it produces follows the
// per-network ownership contract (valid until the handle's next request).
// The returned error is f's own unless scheduling failed (context done,
// fleet closed).
func (fn *FleetNetwork) Do(ctx context.Context, f func(ctx context.Context, n *Network) error) error {
	var rerr error
	if err := fn.fleet.do(ctx, fn.eng, func(ctx context.Context) {
		rerr = f(ctx, fn.net)
	}); err != nil {
		fn.outcome(err)
		return err
	}
	fn.outcome(rerr)
	return rerr
}

// outcome tallies one request's per-network counters.
func (fn *FleetNetwork) outcome(err error) {
	fn.requests.Inc()
	if err != nil {
		fn.errors.Inc()
	}
}

// ExchangeContext schedules one integrated ISAC round on the network's
// engine and returns its result; see Network.ExchangeContext for the round
// semantics. Submission blocks while the engine queue is full (backpressure
// — bound it with a context deadline); ctx also cancels the round itself
// cooperatively once it runs.
func (fn *FleetNetwork) ExchangeContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (res *ExchangeResult, err error) {
	err = fn.Do(ctx, func(ctx context.Context, n *Network) (err error) {
		res, err = n.ExchangeContext(ctx, payload, uplinkBits, opts...)
		return err
	})
	return res, err
}

// Exchange is ExchangeContext with a background context: it waits for a
// queue slot indefinitely.
func (fn *FleetNetwork) Exchange(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ExchangeResult, error) {
	return fn.ExchangeContext(context.Background(), payload, uplinkBits, opts...)
}
