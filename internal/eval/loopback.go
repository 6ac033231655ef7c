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
	"biscatter/internal/trace"
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

// Loopback is one loopback fleet run: a core.Serve deployment of one
// network, its gateway serving one in-process client session per tag, every
// round captured and then replayed against the in-process oracle. core.Serve
// is the one builder of a served deployment, so this run's gateway is
// wired as biscatter-radar's: the schedule and frame groups come from the
// network, and the gateway admits exactly its deployed tags.
type Loopback struct {
	// Tags is the fleet size: tags placed by core.LayoutTags at 16
	// chirps/bit, TDMA-scheduled past Service.FrameCapacity.
	Tags int
	// Seed roots the network's noise and the round payloads.
	Seed int64
	// Workers and Metrics configure the network, as in core.Config.
	Workers int
	Metrics *telemetry.Metrics
	// Rounds is the number of rounds (scheduled cycles) to serve.
	Rounds int
	// Service carries the session flags, applied as core.Deployment does:
	// the gateway listens on an ephemeral loopback port unless Listen
	// names one, and zero durations keep the run's budgets.
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
	// Record is the captured exchange record.
	Record *trace.ExchangeRecord
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
	nodes, sched, err := core.LayoutTags(l.Tags, l.Service.FrameCapacity, 0)
	if err != nil {
		return LoopbackPoint{}, err
	}
	m := telemetry.New()
	svc := l.Service
	if svc.Listen == "" {
		svc.Listen = "127.0.0.1:0"
	}
	s, err := core.Serve(core.Deployment{
		Networks: []core.Config{{Nodes: nodes, Schedule: sched, Seed: l.Seed, ChirpsPerBit: 16,
			Workers: l.Workers, Metrics: l.Metrics}},
		Payload: func(round uint64) []byte {
			return core.RandomPayload(l.Seed+int64(round)*977, 4)
		},
		Gateway: netio.GatewayConfig{
			Rounds:         uint64(l.Rounds),
			SessionTimeout: loopbackSessionTimeout,
			RoundTimeout:   loopbackRoundTimeout,
			FrameTimeout:   loopbackFrameTimeout,
			Linger:         loopbackLinger,
			Poll:           loopbackPoll,
			Metrics:        m,
		},
		Client: netio.ClientConfig{
			AttemptTimeout: loopbackAttemptTimeout,
			MaxAttempts:    loopbackAttempts,
			DialAttempts:   loopbackAttempts,
			Metrics:        m,
		},
		Service: svc,
		Faults:  l.Faults,
	})
	if err != nil {
		return LoopbackPoint{}, err
	}
	defer s.Close()
	cfg := s.Recorders[0].Network().Config()
	ctx, cancel := context.WithTimeout(context.Background(), loopbackDeadline)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- s.Gateway.Run(ctx) }()

	start := time.Now()
	completed := make([]int, len(cfg.Nodes))
	uplink := make([]int, len(cfg.Nodes))
	errs := make([]error, len(cfg.Nodes))
	var wg sync.WaitGroup
	for i, node := range cfg.Nodes {
		wg.Add(1)
		go func(i int, id uint8) {
			defer wg.Done()
			c, conn, err := s.Dial(id)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
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

	record := s.Recorders[0].Record()
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
		Record:  record,
		Metrics: m,
		Elapsed: time.Since(start),
	}
	for i := range completed {
		pt.Completed += completed[i]
		pt.UplinkBits += uplink[i]
	}
	if secs := pt.Elapsed.Seconds(); secs > 0 {
		pt.Goodput = float64(pt.UplinkBits) / secs
	}
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

// DistributedSweep runs one loss-rate point of the distributed sweep: tags
// sessions over loopback UDP, every endpoint impaired with the given drop
// probability (plus light reordering and duplication so impairments
// compose).
func DistributedSweep(tags, rounds int, drop float64, o Options) (LoopbackPoint, error) {
	run := Loopback{Tags: tags, Seed: o.Seed, Workers: 1, Metrics: o.Metrics, Rounds: rounds}
	if drop > 0 {
		run.Faults = &netio.NetFaultProfile{Seed: o.Seed, Drop: drop, Reorder: drop / 2, Duplicate: drop / 4}
	}
	return run.Run()
}

// GatewaySweep runs one capacity cell: tags sessions over the given
// transport, TDMA-scheduled into 4-tag frame groups when the fleet exceeds
// the tone table, every cycle recorded and replay-verified.
func GatewaySweep(tags, rounds int, transport string, o Options) (LoopbackPoint, error) {
	return Loopback{Tags: tags, Seed: o.Seed, Workers: 1, Metrics: o.Metrics, Rounds: rounds,
		Service: netio.ServiceFlags{Transport: transport}}.Run()
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
		allOK = allOK && pt.ReplayOK
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", drop*100),
			fmt.Sprintf("%d", pt.Rounds),
			fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
			fmt.Sprintf("%d", pt.GatewayRetries),
			fmt.Sprintf("%d", pt.ClientRetries),
			fmt.Sprintf("%d", pt.Evicted),
			fmt.Sprintf("%d", pt.FaultsInjected),
			verdict(pt.ReplayOK, "OK", "DIVERGED"),
			fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
		)
	}
	return &Result{
		ID:          "distributed",
		Description: "distributed gateway service under seeded transport faults (conformance vs in-process oracle)",
		Tables:      []Table{tbl},
		Notes: []string{verdict(allOK,
			"every loss point replayed byte-identically: transport faults cost retries and wall-clock, never correctness",
			"REPLAY DIVERGED — the distributed pipeline is not conformant")},
	}, nil
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
			allOK = allOK && pt.ReplayOK
			tbl.AddRow(
				fmt.Sprintf("%d", pt.Tags),
				transport,
				fmt.Sprintf("%d", pt.Groups),
				fmt.Sprintf("%d/%d", pt.Completed, pt.Tags*pt.Rounds),
				fmt.Sprintf("%d", pt.UplinkBits),
				fmt.Sprintf("%.1f", pt.Goodput),
				fmt.Sprintf("%.1f", pt.AnalyticAggregate),
				verdict(pt.ReplayOK, "OK", "DIVERGED"),
				fmt.Sprintf("%.1f", pt.Elapsed.Seconds()),
			)
		}
	}
	return &Result{
		ID:          "gateway",
		Description: "scaled gateway capacity: TDMA-scheduled fleets vs goodput per stream transport",
		Tables:      []Table{tbl},
		Notes: []string{verdict(allOK,
			"every fleet×transport cell replayed byte-identically: scheduling and transport choice move goodput, never correctness",
			"REPLAY DIVERGED — the scaled serving layer is not conformant")},
	}, nil
}

// verdict returns pass when ok holds, else fail.
func verdict(ok bool, pass, fail string) string {
	if ok {
		return pass
	}
	return fail
}
