// Command biscatter-radar runs the BiScatter access point as a gateway
// process serving a fleet of biscatter-tag client processes. The radar owns
// the full exchange pipeline; each tag submits its uplink bits over a
// supervised session (heartbeat liveness, per-session circuit breakers)
// and receives its round outcome. Every round is
// captured into a replayable exchange record:
//
//	biscatter-radar -listen 127.0.0.1:9100 -tags 3 -rounds 5 -record-out run.bsctrace
//	biscatter-tag -connect 127.0.0.1:9100 -id 1   # × N, each with its own -id
//	biscatter-sim replay run.bsctrace             # verify byte-identical
//
// The deployment is built by core.Serve, the one way every served
// deployment is built (eval.Loopback and the chaos suites use it too).
// With -networks N it serves N member networks behind one gateway, their
// TDMA frame groups numbered globally. The gateway admits
// exactly the deployed tags (IDs 1 to networks × tags): any other tag's
// handshake is rejected, naming the tag.
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
	flag.IntVar(&o.networks, "networks", 1, "multiplex this many member networks (each -tags wide) behind one gateway")
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

// serveGateway runs the distributed fleet service: one core.Serve
// deployment of -networks member networks, each -tags wide, served through
// one netio.Gateway and captured into a replayable record per network.
func serveGateway(sf *netio.ServiceFlags, faults *netio.NetFaultProfile, o options) error {
	if o.networks < 1 {
		return fmt.Errorf("-networks must be positive, got %d", o.networks)
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
	cfgs := make([]core.Config, o.networks)
	for ni := range cfgs {
		nodes, sched, err := core.LayoutTags(o.tags, sf.FrameCapacity, ni*o.tags)
		if err != nil {
			return err
		}
		cfgs[ni] = core.Config{Nodes: nodes, Schedule: sched, Seed: o.seed + int64(ni), Metrics: metrics, Tracer: tracer}
	}
	s, err := core.Serve(core.Deployment{
		Networks: cfgs,
		Payload:  func(uint64) []byte { return []byte(o.payload) },
		Gateway: netio.GatewayConfig{
			MinSessions: o.minTags,
			Rounds:      uint64(o.rounds),
			Metrics:     metrics,
			Tracer:      tracer,
			Logf:        log.Printf,
		},
		Service: *sf,
		Faults:  faults,
	})
	if err != nil {
		return err
	}
	defer s.Close()
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
	log.Printf("gateway on %v (%s): %d networks × %d tags over %d frame groups, %d rounds",
		s.Conn.Addr(), sf.Transport, o.networks, o.tags, s.Mux.Groups(), o.rounds)
	if err := s.Gateway.Run(context.Background()); err != nil {
		return err
	}
	for ni, rec := range s.Recorders {
		record := rec.Record()
		log.Printf("gateway done: network %d recorded %d rounds", ni, len(record.Rounds))
		if o.recordOut == "" {
			continue
		}
		out := o.recordOut
		if o.networks > 1 {
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
