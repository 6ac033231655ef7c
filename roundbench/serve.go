package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
)

// submission is one closed-loop request: one client's SubmitRound on a
// served workload, one Exchange call in process.
type submission struct {
	round      uint64
	start, end time.Time
	// ok is a RoundOK result (served) or an exchange without error.
	ok bool
	// nodes holds one entry per node the request covers (the client's own
	// node when served, every node in process), filled even when !ok so
	// failed requests count against the quality ratios.
	nodes []nodeOut
}

// nodeOut is one node's delivered result as its caller saw it.
type nodeOut struct {
	node    int
	payload []byte
	dlErr   string
	bits    []bool
	rangeM  float64
	bin     int
	detErr  string
}

// server runs one closed-loop round at a time.
type server interface {
	round(ctx context.Context, idx uint64) ([]submission, error)
	// verify is the correctness gate, run after the timed loop on the
	// loop's submissions; it must be called after close.
	verify(subs []submission) error
	close() error
}

// roundTimeout bounds one round; a healthy round takes tens of ms.
const roundTimeout = 30 * time.Second

// The correctness gate re-runs the physics, which costs about as much as
// the timed loop itself, so it covers a prefix of each run: rounds are
// sequential (every round advances the noise streams), and a prefix
// replays exactly while a sample of later rounds could not.
const (
	// workerCheckRounds is how many rounds the workers=1 twin re-runs.
	workerCheckRounds = 20
	// replayRounds is how many recorded rounds ReplayRecord re-runs.
	replayRounds = 100
)

// open builds a workload's server and runs its warm-up round 0. A non-nil
// tap decorates the gateway's Conns and ExchangeFunc (served workloads
// only).
func open(w workload, in inputs, tap *wireTap) (server, error) {
	var s server
	var err error
	if w.served() {
		s, err = openGateway(w, in, tap)
	} else {
		s, err = openExchange(w, in)
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	subs, err := s.round(ctx, 0)
	if err == nil && !subs[0].ok {
		err = errors.New("warm-up round failed")
	}
	if err != nil {
		s.close() //nolint:errcheck // the warm-up error is the one to report
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return s, nil
}

// exchangeServer is the in-process loop: one caller, back to back
// core.Network.Exchange calls.
type exchangeServer struct {
	w   workload
	in  inputs
	net *core.Network
}

func openExchange(w workload, in inputs) (*exchangeServer, error) {
	n, err := w.network(w.workers)
	if err != nil {
		return nil, err
	}
	return &exchangeServer{w: w, in: in, net: n}, nil
}

func (s *exchangeServer) round(_ context.Context, idx uint64) ([]submission, error) {
	payload := s.in.payload(idx)
	bits := s.in.uplinkAll(idx, len(s.w.nodes))
	start := time.Now()
	res, err := s.net.Exchange(payload, bits)
	sub := submission{round: idx, start: start, end: time.Now(), ok: err == nil}
	if err == nil {
		sub.nodes = digestNodes(res.Nodes)
	} else {
		for i := range s.w.nodes {
			sub.nodes = append(sub.nodes, nodeOut{node: i})
		}
	}
	return []submission{sub}, nil
}

// verify re-runs the first workerCheckRounds rounds on a workers=1 twin and
// requires the same per-node outcomes: results must not depend on the pool
// width.
func (s *exchangeServer) verify(subs []submission) error {
	twin, err := s.w.network(1)
	if err != nil {
		return err
	}
	byRound := make(map[uint64]submission, len(subs))
	last := uint64(0)
	for _, sub := range subs {
		byRound[sub.round] = sub
		if sub.round > last {
			last = sub.round
		}
	}
	for idx := uint64(0); idx <= last && idx <= workerCheckRounds; idx++ {
		res, err := twin.Exchange(s.in.payload(idx), s.in.uplinkAll(idx, len(s.w.nodes)))
		sub, timed := byRound[idx]
		if !timed {
			continue
		}
		if (err == nil) != sub.ok {
			return fmt.Errorf("round %d: workers=1 error %v, workers=%d ok=%v", idx, err, s.w.workers, sub.ok)
		}
		if err != nil {
			continue
		}
		for i, want := range digestNodes(res.Nodes) {
			if d := diffNode(want, sub.nodes[i]); d != "" {
				return fmt.Errorf("round %d node %d: workers=%d differs from workers=1: %s", idx, i, s.w.workers, d)
			}
		}
	}
	return nil
}

func (s *exchangeServer) close() error { return nil }

// digestNodes copies the per-node results out of the network's scratch.
func digestNodes(nodes []core.NodeResult) []nodeOut {
	out := make([]nodeOut, len(nodes))
	for i, nr := range nodes {
		o := nodeOut{
			node:    i,
			payload: append([]byte(nil), nr.DownlinkPayload...),
			bits:    append([]bool(nil), nr.UplinkBits...),
			rangeM:  nr.Detection.Range,
			bin:     nr.Detection.Bin,
		}
		if nr.DownlinkErr != nil {
			o.dlErr = nr.DownlinkErr.Error()
		}
		if nr.DetectionErr != nil {
			o.detErr = nr.DetectionErr.Error()
		}
		out[i] = o
	}
	return out
}

// diffNode names the first field where two node results differ ("" when
// equal). Floats compare exactly: the pipeline is deterministic.
func diffNode(want, got nodeOut) string {
	switch {
	case string(want.payload) != string(got.payload) || want.dlErr != got.dlErr:
		return fmt.Sprintf("downlink %x/%q vs %x/%q", want.payload, want.dlErr, got.payload, got.dlErr)
	case !equalBits(want.bits, got.bits):
		return fmt.Sprintf("uplink %v vs %v", want.bits, got.bits)
	case want.rangeM != got.rangeM || want.bin != got.bin || want.detErr != got.detErr:
		return fmt.Sprintf("detection %v m bin %d %q vs %v m bin %d %q",
			want.rangeM, want.bin, want.detErr, got.rangeM, got.bin, got.detErr)
	}
	return ""
}

func equalBits(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gatewayServer is a loopback netio.Gateway serving the workload's network
// to one netio.Client per node over the workload's transport.
type gatewayServer struct {
	w   workload
	in  inputs
	rec *core.ExchangeRecorder
	// fleet is set when the network is served through a one-engine Fleet.
	fleet   *core.Fleet
	gwConn  *netio.Node
	cancel  context.CancelFunc
	gwDone  chan error
	conns   []*netio.Node
	clients []*netio.Client
}

func openGateway(w workload, in inputs, tap *wireTap) (_ *gatewayServer, err error) {
	s := &gatewayServer{w: w, in: in}
	defer func() {
		if err != nil {
			s.close() //nolint:errcheck // reporting the construction error
		}
	}()
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	var net *core.Network
	var handle *core.FleetNetwork
	if w.fleet {
		s.fleet = core.NewFleet(core.FleetConfig{Engines: 1}, core.WithWorkers(w.workers))
		if handle, err = s.fleet.AddNetwork(cfg); err != nil {
			return nil, err
		}
		net = handle.Network()
	} else if net, err = core.NewNetwork(cfg, core.WithWorkers(w.workers)); err != nil {
		return nil, err
	}
	if s.rec, err = core.NewExchangeRecorder(net); err != nil {
		return nil, err
	}
	var fn netio.ExchangeFunc
	var groupOf func(tagID uint8) int
	if w.fleet {
		mux, err := core.NewGatewayMux(in.payload, core.GatewayMember{Recorder: s.rec, Handle: handle})
		if err != nil {
			return nil, err
		}
		fn, groupOf = mux.ExchangeFunc(), mux.GroupOf
	} else if fn, err = core.NewGatewayHandler(s.rec, in.payload); err != nil {
		return nil, err
	}
	if s.gwConn, err = netio.ListenTransport(w.transport, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	var gwConn netio.Conn = s.gwConn
	var clientMetrics *telemetry.Metrics
	if tap != nil {
		gwConn = tap.conn(s.gwConn, gatewaySide)
		fn = tap.handler(fn)
		clientMetrics = tap.metrics
	}
	gcfg := netio.GatewayConfig{
		MinSessions:    len(w.nodes),
		RoundTimeout:   10 * time.Second,
		SessionTimeout: time.Minute,
		Poll:           5 * time.Millisecond,
	}
	if sched := net.Schedule(); sched != nil {
		gcfg.Schedule = sched
		gcfg.GroupOf = groupOf
		gcfg.FrameTimeout = 5 * time.Second
	}
	gw := netio.NewGateway(gwConn, gcfg, fn)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.gwDone = make(chan error, 1)
	go func() { s.gwDone <- gw.Run(ctx) }()

	for i := range w.nodes {
		node, err := netio.ListenTransport(w.transport, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, node)
		var conn netio.Conn = node
		if tap != nil {
			conn = tap.conn(node, clientSide)
		}
		c, err := netio.Dial(conn, s.gwConn.Addr().String(), netio.ClientConfig{
			TagID:          w.nodes[i].ID,
			Seed:           in.seed + int64(i),
			AttemptTimeout: 2 * time.Second,
			MaxAttempts:    10,
			DialAttempts:   40,
			Metrics:        clientMetrics,
		})
		if err != nil {
			return nil, fmt.Errorf("dial tag %d: %w", w.nodes[i].ID, err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// round has every client submit its bits for round idx concurrently and
// waits for all results — the gateway's barrier makes the clients move in
// lockstep anyway.
func (s *gatewayServer) round(ctx context.Context, idx uint64) ([]submission, error) {
	subs := make([]submission, len(s.clients))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *netio.Client) {
			defer wg.Done()
			bits := s.in.uplink(idx, i)
			start := time.Now()
			res, err := c.SubmitRound(ctx, bits)
			sub := submission{round: idx, start: start, end: time.Now(), nodes: []nodeOut{{node: i}}}
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("tag %d round %d: %w", s.w.nodes[i].ID, idx, err)
			case res.Round != idx:
				errs[i] = fmt.Errorf("tag %d: got round %d, want %d", s.w.nodes[i].ID, res.Round, idx)
			case res.Status == netio.RoundOK:
				sub.ok = true
				o := res.Outcome
				sub.nodes[0] = nodeOut{
					node: i, payload: o.DownlinkPayload, dlErr: o.DownlinkErr,
					bits: o.UplinkBits, rangeM: o.DetectionRange, bin: int(o.DetectionBin), detErr: o.DetectionErr,
				}
			}
			subs[i] = sub
		}(i, c)
	}
	wg.Wait()
	return subs, errors.Join(errs...)
}

// verify replays the first replayRounds rounds of the gateway's
// ExchangeRecord byte-identically (at workers=2, so pool width is exercised
// too) and requires every client's delivered outcome to equal the recorded
// one: the wire delivered what the physics computed.
func (s *gatewayServer) verify(subs []submission) error {
	rec := s.rec.Record()
	prefix := *rec
	prefix.Rounds = rec.Rounds[:min(len(rec.Rounds), replayRounds)]
	rep, err := core.ReplayRecord(&prefix, core.WithWorkers(2))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("replay diverged: %s (%d mismatches)", rep.Mismatches[0], len(rep.Mismatches))
	}
	for _, sub := range subs {
		if !sub.ok {
			continue
		}
		if sub.round >= uint64(len(rec.Rounds)) {
			return fmt.Errorf("round %d missing from the record (%d rounds)", sub.round, len(rec.Rounds))
		}
		rr := rec.Rounds[sub.round]
		for _, got := range sub.nodes {
			o := rr.Outcomes[got.node]
			want := nodeOut{node: got.node, payload: o.DownlinkPayload, dlErr: o.DownlinkErr,
				bits: o.UplinkBits, rangeM: o.DetectionRange, bin: o.DetectionBin, detErr: o.DetectionErr}
			if d := diffNode(want, got); d != "" {
				return fmt.Errorf("round %d node %d: client result differs from the record: %s", sub.round, got.node, d)
			}
		}
	}
	return nil
}

// close says Goodbye, stops the gateway and waits for it, then releases the
// sockets and the fleet. Safe on a partially opened server.
func (s *gatewayServer) close() error {
	for _, c := range s.clients {
		c.Close() //nolint:errcheck // best-effort Goodbye; the gateway is stopped next
	}
	var err error
	if s.cancel != nil {
		s.cancel()
		if gerr := <-s.gwDone; gerr != nil && !errors.Is(gerr, context.Canceled) {
			err = fmt.Errorf("gateway: %w", gerr)
		}
	}
	for _, c := range s.conns {
		c.Close()
	}
	if s.gwConn != nil {
		s.gwConn.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
	return err
}
