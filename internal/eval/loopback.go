package eval

import (
	"context"
	"fmt"
	"sync"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/mac"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
)

// The loopback run's straggler budgets. They bound how long the run waits
// for a lossy tag, never what it computes: conformance is checked by
// replaying the record, not by these values.
const (
	// Client retry budget per submission and per handshake.
	loopbackAttemptTimeout = 500 * time.Millisecond
	loopbackAttempts       = 40
	// The patient barrier: a straggler whose HelloAck was dropped keeps
	// re-handshaking while its session sits silent, so the round must
	// outwait its retries or it runs partial; the linger bounds the exit
	// when a Goodbye is lost. Service flags override the frame and session
	// budgets.
	loopbackRoundTimeout   = 30 * time.Second
	loopbackFrameTimeout   = 10 * time.Second
	loopbackSessionTimeout = 30 * time.Second
	loopbackLinger         = 5 * time.Second
	loopbackPoll           = 5 * time.Millisecond
	loopbackDeadline       = 5 * time.Minute
)

// NewLoopbackRecorder builds a loopback fleet's network (tags placed by
// core.LayoutTags, 16 chirps/bit) wrapped in an exchange recorder. opts are
// extra network options such as the worker count or a metrics registry.
func NewLoopbackRecorder(tags, frameCapacity int, seed int64, opts ...core.Option) (*core.ExchangeRecorder, error) {
	nodes, sched, err := core.LayoutTags(tags, frameCapacity, 0)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Nodes: nodes, Schedule: sched, Seed: seed, ChirpsPerBit: 16}
	netw, err := core.NewNetwork(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return core.NewExchangeRecorder(netw)
}

// Loopback is one loopback fleet run: a netio gateway serving one client
// session per node of the recorder's network, all in one process, every
// round captured and then replayed against the in-process oracle.
type Loopback struct {
	// Recorder wraps the network under test: its nodes are the fleet, its
	// schedule the TDMA plan, and its seed roots the round payloads.
	Recorder *core.ExchangeRecorder
	// Rounds is the number of rounds (scheduled cycles) to serve.
	Rounds int
	// Service carries the session flags: transport, gateway listen address,
	// admission policy, frame timeout, heartbeat and session timeout (zero
	// durations take the run's budgets). Connect and FrameCapacity are
	// unused; the recorder's schedule already holds the capacity.
	Service netio.ServiceFlags
	// Faults, when non-nil, impairs every endpoint: the gateway with the
	// profile as given, the client of tag ID k with its seed plus 1000·k.
	Faults *netio.NetFaultProfile
}

// LoopbackPoint is the outcome of one loopback run.
type LoopbackPoint struct {
	// Tags is the fleet size.
	Tags int
	// Groups is the TDMA cycle length (1 = unscheduled single frame).
	Groups int
	// Rounds is the number of rounds the gateway served and recorded.
	Rounds int
	// Completed counts client-side RoundOK results (out of Tags×Rounds).
	Completed int
	// UplinkBits totals the uplink bits delivered across all RoundOK results.
	UplinkBits int
	// Goodput is UplinkBits over the wall-clock run, in bit/s.
	Goodput float64
	// AnalyticAggregate is the schedule's aggregate air-rate bound in bit/s
	// (mac.Throughput over the deployment's slow-time parameters): an
	// upper bound the serving layer cannot beat, only approach.
	AnalyticAggregate float64
	// GatewayRetries counts retransmitted submissions absorbed idempotently.
	GatewayRetries int64
	// ClientRetries counts client-side ARQ retransmissions.
	ClientRetries int64
	// Evicted counts sessions lost to the liveness deadline.
	Evicted int64
	// FaultsInjected totals dropped, duplicated, reordered and corrupted
	// messages across the gateway and every client.
	FaultsInjected int64
	// ReplayOK reports whether the captured exchange record replayed
	// byte-identically on the in-process pipeline; Mismatches lists any
	// divergence.
	ReplayOK   bool
	Mismatches []core.ReplayMismatch
	// Metrics is the registry the gateway, every client and every socket
	// shared.
	Metrics *telemetry.Metrics
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// Run serves the rounds and replays the record. A client whose round fails
// at exchange level, or that exhausts its retry budget, fails the run.
func (l Loopback) Run() (LoopbackPoint, error) {
	cfg := l.Recorder.Network().Config()
	admission, err := netio.ParseAdmissionPolicy(l.Service.Admission)
	if err != nil {
		return LoopbackPoint{}, err
	}
	fn, err := core.NewGatewayHandler(l.Recorder, func(round uint64) []byte {
		return core.RandomPayload(cfg.Seed+int64(round)*977, 4)
	})
	if err != nil {
		return LoopbackPoint{}, err
	}
	m := telemetry.New()
	listen := func(addr string, faults *netio.NetFaultProfile) (*netio.Node, error) {
		opts := []netio.Option{netio.WithMetrics(m)}
		if faults != nil {
			opts = append(opts, netio.WithNetFaults(faults))
		}
		return netio.ListenTransport(l.Service.Transport, addr, opts...)
	}
	addr := l.Service.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	gwConn, err := listen(addr, l.Faults)
	if err != nil {
		return LoopbackPoint{}, err
	}
	defer gwConn.Close()
	gw := netio.NewGateway(gwConn, netio.GatewayConfig{
		Schedule:          cfg.Schedule,
		MinSessions:       len(cfg.Nodes),
		Rounds:            uint64(l.Rounds),
		Admission:         admission,
		HeartbeatInterval: l.Service.Heartbeat,
		SessionTimeout:    orDefault(l.Service.SessionTimeout, loopbackSessionTimeout),
		RoundTimeout:      loopbackRoundTimeout,
		FrameTimeout:      orDefault(l.Service.FrameTimeout, loopbackFrameTimeout),
		Linger:            loopbackLinger,
		Poll:              loopbackPoll,
		Metrics:           m,
	}, fn)
	ctx, cancel := context.WithTimeout(context.Background(), loopbackDeadline)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Run(ctx) }()

	start := time.Now()
	completed := make([]int, len(cfg.Nodes))
	uplink := make([]int, len(cfg.Nodes))
	errs := make([]error, len(cfg.Nodes))
	var wg sync.WaitGroup
	for i, node := range cfg.Nodes {
		wg.Add(1)
		go func(i int, id uint8) {
			defer wg.Done()
			var faults *netio.NetFaultProfile
			if l.Faults != nil {
				p := *l.Faults
				p.Seed += int64(id) * 1000
				faults = &p
			}
			conn, err := listen("127.0.0.1:0", faults)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			c, err := netio.Dial(conn, gwConn.Addr().String(), netio.ClientConfig{
				TagID:          id,
				Seed:           cfg.Seed + int64(id),
				AttemptTimeout: loopbackAttemptTimeout,
				MaxAttempts:    loopbackAttempts,
				DialAttempts:   loopbackAttempts,
				Metrics:        m,
			})
			if err != nil {
				errs[i] = fmt.Errorf("tag %d: %w", id, err)
				return
			}
			defer c.Close()
			for r := 0; r < l.Rounds; r++ {
				res, err := c.SubmitRound(ctx, []bool{r%2 == 0, i%2 == 0, true, false})
				switch {
				case err != nil:
					errs[i] = fmt.Errorf("tag %d round %d: %w", id, r, err)
					return
				case res.Status == netio.RoundError:
					errs[i] = fmt.Errorf("tag %d round %d: %s", id, res.Round, res.Outcome.Err)
					return
				case res.Status == netio.RoundOK:
					completed[i]++
					uplink[i] += len(res.Outcome.UplinkBits)
				}
			}
		}(i, node.ID)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return LoopbackPoint{}, err
		}
	}
	if err := <-gwDone; err != nil {
		return LoopbackPoint{}, fmt.Errorf("gateway: %w", err)
	}

	record := l.Recorder.Record()
	pt := LoopbackPoint{
		Tags:           len(cfg.Nodes),
		Rounds:         len(record.Rounds),
		GatewayRetries: m.Counter("netio.retries").Value(),
		ClientRetries:  m.Counter("netio.client.retries").Value(),
		Evicted:        m.Counter("netio.evicted").Value(),
		FaultsInjected: m.Counter("netio.fault.dropped").Value() +
			m.Counter("netio.fault.duplicated").Value() +
			m.Counter("netio.fault.reordered").Value() +
			m.Counter("netio.fault.corrupted").Value(),
		Metrics: m,
		Elapsed: time.Since(start),
	}
	for i := range completed {
		pt.Completed += completed[i]
		pt.UplinkBits += uplink[i]
	}
	if s := pt.Elapsed.Seconds(); s > 0 {
		pt.Goodput = float64(pt.UplinkBits) / s
	}
	sched := cfg.Schedule
	if sched == nil {
		// An unscheduled fleet modulates as one frame group of every tag.
		if sched, err = mac.NewFrameSchedule(pt.Tags, pt.Tags); err != nil {
			return LoopbackPoint{}, err
		}
	}
	pt.Groups = sched.Frames()
	pt.AnalyticAggregate = sched.Throughput(cfg.ChirpsPerBit, cfg.Period).AggregateBitRate
	report, err := core.ReplayRecord(record)
	if err != nil {
		return LoopbackPoint{}, fmt.Errorf("replay: %w", err)
	}
	pt.ReplayOK, pt.Mismatches = report.OK(), report.Mismatches
	return pt, nil
}

// orDefault returns d, or def when d is not positive.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// DistributedSweep runs one loss-rate point of the distributed sweep: tags
// sessions over loopback UDP, every endpoint impaired with the given drop
// probability (plus light reordering and duplication so impairments
// compose).
func DistributedSweep(tags, rounds int, drop float64, o Options) (LoopbackPoint, error) {
	rec, err := NewLoopbackRecorder(tags, 0, o.Seed, core.WithWorkers(1), core.WithMetrics(o.Metrics))
	if err != nil {
		return LoopbackPoint{}, err
	}
	run := Loopback{Recorder: rec, Rounds: rounds}
	if drop > 0 {
		run.Faults = &netio.NetFaultProfile{Seed: o.Seed, Drop: drop, Reorder: drop / 2, Duplicate: drop / 4}
	}
	return run.Run()
}

// GatewaySweep runs one capacity cell: tags sessions over the given
// transport, TDMA-scheduled into 4-tag frame groups when the fleet exceeds
// the tone table, every cycle recorded and replay-verified.
func GatewaySweep(tags, rounds int, transport string, o Options) (LoopbackPoint, error) {
	rec, err := NewLoopbackRecorder(tags, 0, o.Seed, core.WithWorkers(1), core.WithMetrics(o.Metrics))
	if err != nil {
		return LoopbackPoint{}, err
	}
	return Loopback{Recorder: rec, Rounds: rounds, Service: netio.ServiceFlags{Transport: transport}}.Run()
}

// Distributed sweeps the distributed gateway service across transport loss
// rates: the robustness claim is that a lossy control plane degrades only
// liveness (retries, wall-clock), never correctness — every point's record
// must replay byte-identically against the in-process oracle.
func Distributed(o Options) (*Result, error) {
	o = o.withDefaults()
	const tags = 3
	rounds := o.Trials
	if rounds > 8 {
		rounds = 8 // each round is a full exchange; keep the sweep interactive
	}

	tbl := Table{
		Title: fmt.Sprintf("Distributed — loopback gateway, %d tags × %d rounds under transport loss", tags, rounds),
		Columns: []string{"drop", "rounds", "completed", "gw retries",
			"client retries", "evicted", "faults", "replay", "wall (s)"},
	}
	allOK := true
	for _, drop := range []float64{0, 0.10, 0.20} {
		pt, err := DistributedSweep(tags, rounds, drop, o)
		if err != nil {
			return nil, err
		}
		replay := "OK"
		if !pt.ReplayOK {
			replay, allOK = "DIVERGED", false
		}
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", drop*100),
			fmt.Sprintf("%d", pt.Rounds),
			fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
			fmt.Sprintf("%d", pt.GatewayRetries),
			fmt.Sprintf("%d", pt.ClientRetries),
			fmt.Sprintf("%d", pt.Evicted),
			fmt.Sprintf("%d", pt.FaultsInjected),
			replay,
			fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
		)
	}
	res := &Result{
		ID:          "distributed",
		Description: "distributed gateway service under seeded transport faults (conformance vs in-process oracle)",
		Tables:      []Table{tbl},
	}
	if allOK {
		res.Notes = append(res.Notes,
			"every loss point replayed byte-identically: transport faults cost retries and wall-clock, never correctness")
	} else {
		res.Notes = append(res.Notes, "REPLAY DIVERGED — the distributed pipeline is not conformant")
	}
	return res, nil
}

// Gateway sweeps the scaled serving layer across fleet sizes and stream
// transports: the capacity claim is that TDMA frame scheduling lets one
// gateway serve fleets past the tone-table limit on either transport, with
// goodput tracking the schedule's analytic aggregate bound and every cell
// still replaying byte-identically.
func Gateway(o Options) (*Result, error) {
	o = o.withDefaults()
	rounds := o.Trials
	if rounds > 3 {
		rounds = 3 // each round is a full scheduled cycle across all groups
	}

	tbl := Table{
		Title: fmt.Sprintf("Gateway capacity — loopback fleet × transport, %d rounds each", rounds),
		Columns: []string{"tags", "transport", "groups", "completed",
			"uplink bits", "goodput (bit/s)", "analytic (bit/s)", "replay", "wall (s)"},
	}
	allOK := true
	for _, tags := range []int{4, 8, 16} {
		for _, transport := range []string{netio.TransportUDP, netio.TransportTCP} {
			pt, err := GatewaySweep(tags, rounds, transport, o)
			if err != nil {
				return nil, err
			}
			replay := "OK"
			if !pt.ReplayOK {
				replay, allOK = "DIVERGED", false
			}
			tbl.AddRow(
				fmt.Sprintf("%d", pt.Tags),
				transport,
				fmt.Sprintf("%d", pt.Groups),
				fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
				fmt.Sprintf("%d", pt.UplinkBits),
				fmt.Sprintf("%.1f", pt.Goodput),
				fmt.Sprintf("%.1f", pt.AnalyticAggregate),
				replay,
				fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
			)
		}
	}
	res := &Result{
		ID:          "gateway",
		Description: "scaled gateway capacity: TDMA-scheduled fleets vs goodput per stream transport",
		Tables:      []Table{tbl},
	}
	if allOK {
		res.Notes = append(res.Notes,
			"every fleet×transport cell replayed byte-identically: scheduling and transport choice move goodput, never correctness")
	} else {
		res.Notes = append(res.Notes, "REPLAY DIVERGED — the scaled serving layer is not conformant")
	}
	return res, nil
}
