// Command biscatter-radar runs the BiScatter access point as a gateway
// process serving a fleet of biscatter-tag client processes. The radar owns
// the full exchange pipeline; each tag submits its uplink bits over a
// supervised session (heartbeat liveness, per-session circuit breakers,
// bounded send queues) and receives its round outcome. Every round is
// captured into a replayable exchange record:
//
//	biscatter-radar -listen 127.0.0.1:9100 -tags 3 -rounds 5 -record-out run.bsctrace
//	biscatter-tag -connect 127.0.0.1:9100 -id 1   # × N, each with its own -id
//	biscatter-sim replay run.bsctrace             # verify byte-identical
//
// The -net-* flags inject deterministic transport faults (drop, duplicate,
// reorder, corrupt, delay) for chaos testing; see also biscatter-sim chaos.
//
// Observability: -debug-addr serves live pipeline telemetry over HTTP
// (/metrics (OpenMetrics), /metrics.json, /debug/trace, /debug/flight,
// /debug/vars, /debug/pprof/) while rounds run, -metrics-out dumps the final
// telemetry snapshot as JSON on exit, and -trace-out writes one causal span
// tree per exchange round of every member network as Chrome trace_event
// (.json) or JSONL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"biscatter/internal/core"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// options are the binary-local flags.
type options struct {
	tags, networks, minTags, rounds int
	seed                            int64
	payload, recordOut              string
	debugAddr, metricsOut, traceOut string
}

func main() {
	sf := netio.RegisterServiceFlags(flag.CommandLine)
	faults := netio.RegisterNetFaultFlags(flag.CommandLine)
	var o options
	flag.IntVar(&o.tags, "tags", 1, "serve this many tag sessions per member network")
	flag.IntVar(&o.networks, "networks", 1, "multiplex this many member networks (each -tags wide) behind one gateway via a fleet")
	flag.IntVar(&o.minTags, "min-tags", 0, "wait for this many sessions before round 0 (0 = all tags)")
	flag.StringVar(&o.recordOut, "record-out", "", "write the exchange record to this file")
	flag.StringVar(&o.payload, "payload", "hello tag", "downlink payload")
	flag.IntVar(&o.rounds, "rounds", 3, "number of exchange rounds")
	flag.Int64Var(&o.seed, "seed", 3, "noise seed")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve live telemetry over HTTP on this address (e.g. localhost:6060)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the final telemetry snapshot to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write per-round exchange traces to this file (.json = Chrome trace_event, else JSONL)")
	flag.Parse()

	if o.tags < 1 {
		fmt.Fprintf(flag.CommandLine.Output(), "-tags must be positive, got %d\n", o.tags)
		flag.Usage()
		os.Exit(2)
	}
	err := serveGateway(sf, faults, o)
	switch {
	case errors.Is(err, netio.ErrAddrInUse):
		// A clean, actionable exit: another gateway already owns the port.
		log.Fatalf("%v — is another gateway already running there?", err)
	case err != nil:
		log.Fatal(err)
	}
}

// serveGateway runs the distributed fleet service: a netio.Gateway
// supervising tag client sessions across one or more member networks, each
// round executed on the in-process exchange pipeline and captured into a
// replayable record per network. With -networks > 1 the members run on a
// core.Fleet — one gateway, N networks, concurrent rounds.
func serveGateway(sf *netio.ServiceFlags, faults *netio.NetFaultProfile, o options) error {
	tags, networks := o.tags, o.networks
	if networks < 1 {
		return fmt.Errorf("-networks must be positive, got %d", networks)
	}
	admission, err := netio.ParseAdmissionPolicy(sf.Admission)
	if err != nil {
		return err
	}
	metrics := telemetry.New()
	// The tracer is always on as the black box behind /debug/flight: it
	// keeps the last 64 rounds, or every round when -trace-out asks for the
	// whole run.
	depth := 64
	if o.traceOut != "" {
		depth = 0
	}
	tracer := telemetry.NewTracer(depth)
	payloadFn := func(round uint64) []byte { return []byte(o.payload) }

	var fleet *core.Fleet
	if networks > 1 {
		fleet = core.NewFleet(core.FleetConfig{Engines: networks, Metrics: metrics, Tracer: tracer})
		defer fleet.Close()
	}
	recs := make([]*core.ExchangeRecorder, networks)
	members := make([]core.GatewayMember, networks)
	for ni := 0; ni < networks; ni++ {
		nodes, sched, err := core.LayoutTags(tags, sf.FrameCapacity, ni*tags)
		if err != nil {
			return err
		}
		cfg := core.Config{Nodes: nodes, Schedule: sched, Seed: o.seed + int64(ni), Metrics: metrics, Tracer: tracer}
		var netw *core.Network
		var handle *core.FleetNetwork
		if fleet != nil {
			// The fleet attaches its shared metrics and tracer itself.
			cfg.Metrics, cfg.Tracer = nil, nil
			handle, err = fleet.AddNetwork(cfg)
			if err != nil {
				return err
			}
			netw = handle.Network()
		} else {
			netw, err = core.NewNetwork(cfg)
			if err != nil {
				return err
			}
		}
		rec, err := core.NewExchangeRecorder(netw)
		if err != nil {
			return err
		}
		rec.SetMeta("tool", "biscatter-radar gateway")
		rec.SetMeta("network", fmt.Sprint(ni))
		recs[ni] = rec
		members[ni] = core.GatewayMember{Recorder: rec, Handle: handle}
	}
	mux, err := core.NewGatewayMux(payloadFn, members...)
	if err != nil {
		return err
	}
	if o.debugAddr != "" {
		ln, derr := telemetry.ServeDebugConfig(o.debugAddr, telemetry.DebugConfig{
			Metrics: metrics,
			Tracer:  tracer,
		})
		if derr != nil {
			return fmt.Errorf("debug server: %w", derr)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/metrics.json", ln.Addr())
	}
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:9100"
	}
	conn, err := netio.ListenTransport(sf.Transport, listen, netio.WithMetrics(metrics), netio.WithNetFaults(faults))
	if err != nil {
		return err
	}
	defer conn.Close()
	minTags := o.minTags
	if minTags <= 0 {
		minTags = mux.Sessions()
	}
	log.Printf("gateway on %v (%s): %d networks × %d tags over %d frame groups, %d rounds, min %d sessions, admission %v",
		conn.Addr(), sf.Transport, networks, tags, mux.Groups(), o.rounds, minTags, admission)
	gw := netio.NewGateway(conn, netio.GatewayConfig{
		MinSessions:       minTags,
		MaxSessions:       mux.Sessions(),
		Rounds:            uint64(o.rounds),
		GroupOf:           mux.GroupOf,
		Admission:         admission,
		FrameTimeout:      sf.FrameTimeout,
		HeartbeatInterval: sf.Heartbeat,
		SessionTimeout:    sf.SessionTimeout,
		Metrics:           metrics,
		Tracer:            tracer,
		Logf:              log.Printf,
	}, mux.ExchangeFunc())
	if err := gw.Run(context.Background()); err != nil {
		return err
	}
	for ni, rec := range recs {
		record := rec.Record()
		log.Printf("gateway done: network %d recorded %d rounds", ni, len(record.Rounds))
		if o.recordOut == "" {
			continue
		}
		out := o.recordOut
		if networks > 1 {
			out = fmt.Sprintf("%s.net%d", o.recordOut, ni)
		}
		if err := trace.SaveExchange(out, record); err != nil {
			return fmt.Errorf("record-out: %w", err)
		}
		log.Printf("exchange record written to %s (verify with: biscatter-sim replay %s)", out, out)
	}
	if o.metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(o.metricsOut, metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if o.traceOut != "" {
		if err := telemetry.WriteTraceFile(o.traceOut, tracer.Traces()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}
