package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biscatter/internal/radar"
	"biscatter/internal/telemetry"
)

// fleetNodeConfig builds a small per-network deployment whose seed varies by
// network index, so fleet determinism is checked against distinct RNG
// streams, not one shared one.
func fleetNodeConfig(id int) Config {
	return Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 1.5 + 0.2*float64(id%4), ModulationF0: 1000, ModulationF1: 1600},
			{ID: 2, Range: 3.0 + 0.3*float64(id%3), ModulationF0: 2200, ModulationF1: 2800},
		},
		ChirpsPerBit: 16,
		Seed:         1000 + int64(id),
		Workers:      1,
	}
}

// compareNodeResults fails the test when two exchange results differ in any
// observable field.
func compareNodeResults(t *testing.T, label string, a, b *ExchangeResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Frame, b.Frame) {
		t.Errorf("%s: frames differ", label)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%s: node counts differ: %d vs %d", label, len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if !bytes.Equal(x.DownlinkPayload, y.DownlinkPayload) ||
			errString(x.DownlinkErr) != errString(y.DownlinkErr) ||
			!reflect.DeepEqual(x.DownlinkDiag, y.DownlinkDiag) ||
			x.Detection != y.Detection ||
			errString(x.DetectionErr) != errString(y.DetectionErr) ||
			!reflect.DeepEqual(x.UplinkBits, y.UplinkBits) ||
			errString(x.UplinkErr) != errString(y.UplinkErr) ||
			x.UplinkDiag != y.UplinkDiag {
			t.Errorf("%s: node %d results differ:\n%+v\nvs\n%+v", label, i, x, y)
		}
	}
}

// TestFleetMatchesSerialNetwork is the fleet determinism pin: 8 networks on
// a 2-engine fleet, driven concurrently, must produce exchange sequences
// byte-identical to standalone Networks advanced with the same seeds and the
// same call order. Run under -race this is also the fleet's data-race test.
func TestFleetMatchesSerialNetwork(t *testing.T) {
	const (
		networks = 8
		rounds   = 4
	)
	f := NewFleet(FleetConfig{Engines: 2})
	defer f.Close()

	var wg sync.WaitGroup
	for id := 0; id < networks; id++ {
		cfg := fleetNodeConfig(id)
		fn, err := f.AddNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload := RandomPayload(int64(id*100+r), 3)
				uplink := map[int][]bool{0: {r%2 == 0, true}, 1: {false, r%2 == 1}}
				got, err := fn.Exchange(payload, uplink)
				if err != nil {
					t.Errorf("net %d round %d: fleet: %v", id, r, err)
					return
				}
				want, err := serial.Exchange(payload, uplink)
				if err != nil {
					t.Errorf("net %d round %d: serial: %v", id, r, err)
					return
				}
				compareNodeResults(t, fmt.Sprintf("net %d round %d", id, r), want, got)
			}
		}(id)
	}
	wg.Wait()
	if got := f.Networks(); got != networks {
		t.Fatalf("fleet reports %d networks, want %d", got, networks)
	}
}

// TestFleetSharedHandleSerializes hammers one FleetNetwork from many
// goroutines: calls must serialize on the network's engine without races or
// errors (run under -race).
func TestFleetSharedHandleSerializes(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 2})
	defer f.Close()
	fn, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0x5A}
	uplink := map[int][]bool{0: {true}, 1: {false}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if _, err := fn.Exchange(payload, uplink); err != nil {
					t.Errorf("shared-handle exchange: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// waitingCtx is a background context that reports when a call first asks
// for its Done channel, which the fleet does only once it has admitted the
// call and starts to wait for the network's turn.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx() *waitingCtx {
	return &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// wedge starts a Do on fn that blocks until gate closes, and returns once
// it runs, holding fn's turn and a width slot. Its error arrives on the
// returned channel.
func wedge(fn *FleetNetwork, gate <-chan struct{}) <-chan error {
	running := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- fn.Do(context.Background(), func(context.Context, *Network) error {
			close(running)
			<-gate
			return nil
		})
	}()
	<-running
	return done
}

// TestFleetBackpressureDeadline wedges a 1-engine fleet (one call running,
// four more waiting behind it) and checks that deadline-bounded calls are
// rejected with the context error, both on the wedged network and on a
// second network waiting for the held width slot, while an unbounded call
// waits the wedge out.
func TestFleetBackpressureDeadline(t *testing.T) {
	m := telemetry.New()
	f := NewFleet(FleetConfig{Engines: 1, Metrics: m})
	defer f.Close()
	fn, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	other, err := f.AddNetwork(fleetNodeConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	// A call that waits past its deadline returns only once the gate
	// opens; the watchdog opens it, so the test fails instead of hanging.
	var fired atomic.Bool
	watchdog := time.AfterFunc(10*time.Second, func() {
		fired.Store(true)
		release()
	})
	defer watchdog.Stop()
	defer release()
	wedged := wedge(fn, gate)
	queued := make(chan error, 4)
	for i := 0; i < cap(queued); i++ {
		ctx := newWaitingCtx()
		go func() { queued <- fn.Do(ctx, func(context.Context, *Network) error { return nil }) }()
		<-ctx.waiting
	}

	for _, c := range []struct {
		name string
		fn   *FleetNetwork
	}{{"wedged network", fn}, {"second network", other}} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := c.fn.ExchangeContext(ctx, []byte{1}, nil)
		cancel()
		if fired.Load() {
			t.Fatalf("%s: wedged fleet call returned %v only after the watchdog released the wedge: it waited past its deadline", c.name, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: wedged fleet call returned %v, want DeadlineExceeded", c.name, err)
		}
	}
	if got := m.Counter("fleet.rejected").Value(); got != 2 {
		t.Fatalf("fleet.rejected = %d, want 2", got)
	}

	// An unbounded call waits for the wedge to clear and then runs.
	res := make(chan error, 1)
	go func() {
		_, err := fn.Exchange([]byte{2}, nil)
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("call completed against a wedged fleet: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	release()
	if err := <-res; err != nil {
		t.Fatalf("post-wedge exchange failed: %v", err)
	}
	if err := <-wedged; err != nil {
		t.Fatalf("wedged call: %v", err)
	}
	for i := 0; i < cap(queued); i++ {
		if err := <-queued; err != nil {
			t.Fatalf("queued call: %v", err)
		}
	}
}

// TestFleetCloseWaitsForAdmittedCalls pins Close's drain: Close issued
// while a call runs returns only after it and a call admitted behind it
// have returned, and both run; afterwards every entry point fails with
// ErrFleetClosed.
func TestFleetCloseWaitsForAdmittedCalls(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 1})
	fn, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	wedged := wedge(fn, gate)
	ctx := newWaitingCtx()
	var ran bool
	admitted := make(chan error, 1)
	go func() {
		admitted <- fn.Do(ctx, func(context.Context, *Network) error {
			ran = true
			return nil
		})
	}()
	<-ctx.waiting

	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted call was running")
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	<-closed
	if err := <-wedged; err != nil {
		t.Fatalf("running call: %v", err)
	}
	if err := <-admitted; err != nil || !ran {
		t.Fatalf("call admitted before Close: ran=%v err=%v, want it run", ran, err)
	}

	if err := fn.Do(context.Background(), func(context.Context, *Network) error { return nil }); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close Do returned %v, want ErrFleetClosed", err)
	}
	if _, err := fn.Exchange([]byte{1}, nil); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close Exchange returned %v, want ErrFleetClosed", err)
	}
	if _, err := f.AddNetwork(fleetNodeConfig(1)); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close AddNetwork returned %v, want ErrFleetClosed", err)
	}
}

// TestFleetPreCancelledContext pins the deterministic reject: a context that
// is already done never enqueues.
func TestFleetPreCancelledContext(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 1})
	defer f.Close()
	fn, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fn.ExchangeContext(ctx, []byte{1}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submission returned %v, want Canceled", err)
	}
}

// TestFleetClose pins the shutdown contract: Close drains, further use fails
// with ErrFleetClosed, and a second Close is a no-op.
func TestFleetClose(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 2})
	fn, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Exchange([]byte{0xA5}, map[int][]bool{0: {true}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
	if _, err := fn.Exchange([]byte{1}, nil); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close exchange returned %v, want ErrFleetClosed", err)
	}
	if _, err := f.AddNetwork(fleetNodeConfig(1)); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("post-close AddNetwork returned %v, want ErrFleetClosed", err)
	}
}

// TestFleetOptionPlumbing pins the unified option surface: fleet-wide
// defaults are NewNetwork options, per-network options override them, and
// the fleet registry/recorder reach every network.
func TestFleetOptionPlumbing(t *testing.T) {
	m := telemetry.New()
	f := NewFleet(FleetConfig{Engines: 1, Metrics: m}, WithWorkers(1), WithSeed(42))
	defer f.Close()

	inherits, err := f.AddNetwork(Config{Nodes: []NodeConfig{{ID: 1, Range: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := inherits.Network().Config(); cfg.Seed != 42 || cfg.Workers != 1 {
		t.Fatalf("fleet defaults not applied: seed=%d workers=%d", cfg.Seed, cfg.Workers)
	}
	if inherits.Network().Config().Metrics != m {
		t.Fatal("fleet metrics registry not attached to network")
	}
	overrides, err := f.AddNetwork(Config{Nodes: []NodeConfig{{ID: 1, Range: 2}}}, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := overrides.Network().Config(); cfg.Seed != 7 {
		t.Fatalf("per-network option should override fleet default: seed=%d", cfg.Seed)
	}
	if inherits.ID() == overrides.ID() {
		t.Fatal("fleet assigned duplicate network IDs")
	}
}

// TestFleetTelemetry exercises the aggregate metric surface after a burst of
// requests across two networks.
func TestFleetTelemetry(t *testing.T) {
	m := telemetry.New()
	f := NewFleet(FleetConfig{Engines: 2, Metrics: m})
	defer f.Close()
	a, err := f.AddNetwork(fleetNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AddNetwork(fleetNodeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xC3}
	uplink := map[int][]bool{0: {true}, 1: {false}}
	const each = 3
	for r := 0; r < each; r++ {
		if _, err := a.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Metrics()
	if got := snap.Counters["fleet.requests"]; got != 2*each {
		t.Errorf("fleet.requests = %d, want %d", got, 2*each)
	}
	for _, name := range []string{"fleet.network.0.requests", "fleet.network.1.requests"} {
		if got := snap.Counters[name]; got != each {
			t.Errorf("%s = %d, want %d", name, got, each)
		}
	}
	if got := snap.Gauges["fleet.engines"]; got != 2 {
		t.Errorf("fleet.engines = %v, want 2", got)
	}
	if got := snap.Gauges["fleet.networks"]; got != 2 {
		t.Errorf("fleet.networks = %v, want 2", got)
	}
	for _, name := range []string{"fleet.queue_wait.seconds", "fleet.service.seconds", "fleet.latency.seconds"} {
		if h, ok := snap.Histograms[name]; !ok || h.Count != 2*each {
			t.Errorf("%s count = %+v, want %d samples", name, h, 2*each)
		}
	}
	// The shared registry must also carry the per-stage pipeline metrics of
	// the resident networks.
	if snap.Counters["core.downlink.ok"] == 0 {
		t.Error("network pipeline metrics missing from fleet registry")
	}
}

// TestFleetLocalizeAndMap smoke-tests the sensing entry points through the
// fleet path.
func TestFleetLocalizeAndMap(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 1})
	defer f.Close()
	fn, err := f.AddNetwork(fleetNodeConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var dets []radar.Detection
	if err := fn.Do(ctx, func(ctx context.Context, n *Network) (err error) {
		dets, err = n.LocalizeContext(ctx, nil, 128)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 {
		t.Fatalf("got %d detections, want 2", len(dets))
	}
	if err := fn.Do(ctx, func(ctx context.Context, n *Network) error {
		_, err := n.MapEnvironmentContext(ctx, 128)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetSteadyStateAllocsPerEngine pins the serving overhead: an exchange
// through the fleet path must stay within a small constant number of
// allocations over the bare Network pin (the call's closure, plus result
// assembly) — waiting for the network's turn and a width slot adds no
// per-call garbage.
func TestFleetSteadyStateAllocsPerEngine(t *testing.T) {
	f := NewFleet(FleetConfig{Engines: 1, Metrics: telemetry.New()})
	defer f.Close()
	fn, err := f.AddNetwork(Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 2.0, ModulationF0: 1000, ModulationF1: 1600},
			{ID: 2, Range: 3.5, ModulationF0: 2200, ModulationF1: 2800},
		},
		Seed:         99,
		ChirpsPerBit: 16,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xA5}
	uplink := map[int][]bool{0: {true, false}, 1: {false, true}}
	for i := 0; i < 3; i++ {
		if _, err := fn.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fn.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state fleet Exchange: %.0f allocs/op", allocs)
	// The bare-Network pin is 120 (alloc_test.go); the fleet path may add
	// only the fixed per-call closure on top.
	const pin = 140
	if allocs > pin {
		t.Fatalf("steady-state fleet Exchange allocated %.0f times, pin is %d", allocs, pin)
	}
}
