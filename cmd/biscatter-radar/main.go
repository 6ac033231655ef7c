// Command biscatter-radar runs the BiScatter access point as a standalone
// process. Each round it encodes a downlink payload into a CSSK frame,
// announces the frame to the tag process over UDP, collects the tag's
// report and modulation plan, synthesizes the backscatter observation the
// radar front-end would capture, and localizes the tag while demodulating
// its uplink bits.
//
//	biscatter-radar -tag 127.0.0.1:7001 -range 3.0 -payload "hello" -rounds 3
//
// Gateway mode (-tags N) serves a fleet of biscatter-tag client processes
// instead of the single-peer demo: the radar owns the full exchange pipeline
// and each tag submits its uplink bits over a supervised session (heartbeat
// liveness, per-session circuit breakers, bounded send queues). Every round
// is captured into a replayable exchange record:
//
//	biscatter-radar -listen 127.0.0.1:9100 -tags 3 -rounds 5 -record-out run.bsctrace
//	biscatter-tag -connect 127.0.0.1:9100 -id 1   # × N, each with its own -id
//	biscatter-sim replay run.bsctrace             # verify byte-identical
//
// The -net-* flags inject deterministic transport faults (drop, duplicate,
// reorder, corrupt, delay) for chaos testing; see also biscatter-sim chaos.
//
// Observability: -debug-addr serves live pipeline telemetry over HTTP
// (/metrics (OpenMetrics), /metrics.json, /debug/trace, /debug/vars,
// /debug/pprof/) while rounds run, -metrics-out dumps the final telemetry
// snapshot as JSON on exit, and -trace-out writes one causal span tree per
// round — including the tag round-trip over UDP — as Chrome trace_event
// (.json) or JSONL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/fec"
	"biscatter/internal/netio"
	"biscatter/internal/radar"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

func main() {
	tagAddr := flag.String("tag", "127.0.0.1:7001", "tag process UDP address")
	sf := netio.RegisterServiceFlags(flag.CommandLine)
	faults := netio.RegisterNetFaultFlags(flag.CommandLine)
	tags := flag.Int("tags", 0, "serve this many tag sessions in gateway mode (0 = single-peer demo)")
	networks := flag.Int("networks", 1, "gateway mode: multiplex this many member networks (each -tags wide) behind one gateway via a fleet")
	minTags := flag.Int("min-tags", 0, "gateway mode: wait for this many sessions before round 0 (0 = all tags)")
	recordOut := flag.String("record-out", "", "gateway mode: write the exchange record to this file")
	tagRange := flag.Float64("range", 2.6, "simulated radar–tag distance in meters")
	payload := flag.String("payload", "hello tag", "downlink payload")
	bits := flag.Int("bits", 5, "CSSK symbol size (must match the tag)")
	fecName := flag.String("fec", "none", "downlink FEC scheme: none, hamming or repetition (must match the tag)")
	rounds := flag.Int("rounds", 3, "number of exchange rounds")
	seed := flag.Int64("seed", 3, "noise seed")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry over HTTP on this address (e.g. localhost:6060)")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry snapshot to this JSON file")
	traceOut := flag.String("trace-out", "", "write per-round exchange traces to this file (.json = Chrome trace_event, else JSONL)")
	flag.Parse()

	if *tags > 0 {
		err := serveGateway(sf, faults, *tags, *networks, *minTags, *rounds, *seed, *payload, *recordOut, *debugAddr, *metricsOut)
		switch {
		case errors.Is(err, netio.ErrAddrInUse):
			// A clean, actionable exit: another gateway already owns the port.
			log.Fatalf("%v — is another gateway already running there?", err)
		case err != nil:
			log.Fatal(err)
		}
		return
	}
	listen := sf.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if err := run(*tagAddr, listen, *tagRange, *payload, *bits, *fecName, *rounds, *seed, *debugAddr, *metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
}

// serveGateway runs the distributed fleet service: a netio.Gateway
// supervising tag client sessions across one or more member networks, each
// round executed on the in-process exchange pipeline and captured into a
// replayable record per network. With -networks > 1 the members run on a
// core.Fleet — one gateway, N networks, concurrent rounds.
func serveGateway(sf *netio.ServiceFlags, faults *netio.NetFaultProfile,
	tags, networks, minTags, rounds int, seed int64, payload, recordOut, debugAddr, metricsOut string) error {

	if networks < 1 {
		return fmt.Errorf("-networks must be positive, got %d", networks)
	}
	admission, err := netio.ParseAdmissionPolicy(sf.Admission)
	if err != nil {
		return err
	}
	metrics := telemetry.New()
	flight := telemetry.NewFlightRecorder(64)
	payloadFn := func(round uint64) []byte { return []byte(payload) }

	var fleet *core.Fleet
	if networks > 1 {
		fleet = core.NewFleet(core.FleetConfig{Engines: networks, Metrics: metrics, Flight: flight})
		defer fleet.Close()
	}
	recs := make([]*core.ExchangeRecorder, networks)
	members := make([]core.GatewayMember, networks)
	for ni := 0; ni < networks; ni++ {
		nodes, sched, err := core.LayoutTags(tags, sf.FrameCapacity, ni*tags)
		if err != nil {
			return err
		}
		cfg := core.Config{Nodes: nodes, Schedule: sched, Seed: seed + int64(ni), Metrics: metrics}
		var netw *core.Network
		var handle *core.FleetNetwork
		if fleet != nil {
			cfg.Metrics = nil // the fleet attaches its shared metrics itself
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
	if debugAddr != "" {
		ln, derr := telemetry.ServeDebugConfig(debugAddr, telemetry.DebugConfig{
			Metrics: metrics,
			Flight:  flight,
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
	if minTags <= 0 {
		minTags = mux.Sessions()
	}
	log.Printf("gateway on %v (%s): %d networks × %d tags over %d frame groups, %d rounds, min %d sessions, admission %v",
		conn.Addr(), sf.Transport, networks, tags, mux.Groups(), rounds, minTags, admission)
	gw := netio.NewGateway(conn, netio.GatewayConfig{
		MinSessions:       minTags,
		MaxSessions:       mux.Sessions(),
		Rounds:            uint64(rounds),
		GroupOf:           mux.GroupOf,
		Admission:         admission,
		FrameTimeout:      sf.FrameTimeout,
		HeartbeatInterval: sf.Heartbeat,
		SessionTimeout:    sf.SessionTimeout,
		Metrics:           metrics,
		Flight:            flight,
		Logf:              log.Printf,
	}, mux.ExchangeFunc())
	if err := gw.Run(context.Background()); err != nil {
		return err
	}
	for ni, rec := range recs {
		record := rec.Record()
		log.Printf("gateway done: network %d recorded %d rounds", ni, len(record.Rounds))
		if recordOut == "" {
			continue
		}
		out := recordOut
		if networks > 1 {
			out = fmt.Sprintf("%s.net%d", recordOut, ni)
		}
		if err := trace.SaveExchange(out, record); err != nil {
			return fmt.Errorf("record-out: %w", err)
		}
		log.Printf("exchange record written to %s (verify with: biscatter-sim replay %s)", out, out)
	}
	if metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(metricsOut, metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

func run(tagAddr, listen string, tagRange float64, payload string, bits int, fecName string, rounds int, seed int64, debugAddr, metricsOut, traceOut string) error {
	var metrics *telemetry.Metrics
	if debugAddr != "" || metricsOut != "" {
		metrics = telemetry.New()
	}
	var tracer *telemetry.Tracer
	if debugAddr != "" || traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	fecCfg, err := fec.ParseConfig(fecName)
	if err != nil {
		return err
	}
	netw, err := core.NewNetwork(core.Config{
		Nodes:      []core.NodeConfig{{ID: 1, Range: tagRange}},
		SymbolBits: bits,
		FEC:        fecCfg,
		Seed:       seed,
		Metrics:    metrics,
	})
	if err != nil {
		return err
	}
	if debugAddr != "" {
		ln, derr := telemetry.ServeDebugConfig(debugAddr, telemetry.DebugConfig{
			Metrics: metrics,
			Tracer:  tracer,
		})
		if derr != nil {
			return fmt.Errorf("debug server: %w", derr)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/metrics.json (also /metrics, /debug/trace, /debug/vars, /debug/pprof/)", ln.Addr())
	}
	conn, err := netio.Listen(listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	peer, err := net.ResolveUDPAddr("udp", tagAddr)
	if err != nil {
		return err
	}
	log.Printf("radar on %v, tag peer %v, range %.1f m (downlink SNR %.1f dB)",
		conn.Addr(), peer, tagRange, netw.Link().DownlinkSNRdB(tagRange))

	for round := 0; round < rounds; round++ {
		if err := exchange(conn, peer, netw, tracer, uint32(round), []byte(payload), tagRange); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	if metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(metricsOut, metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if traceOut != "" {
		if err := telemetry.WriteTraceFile(traceOut, tracer.Traces()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

func exchange(conn *netio.Node, peer *net.UDPAddr, netw *core.Network,
	tracer *telemetry.Tracer, seq uint32, payload []byte, tagRange float64) (err error) {

	cfg := netw.Config()
	// The exchange runs as a hand-driven pipeline (the tag lives in another
	// process), so the span tree is built by hand too: the round's sequence
	// number doubles as the exchange sequence so the radar's and tag's
	// traces correlate by ID across the two processes.
	var root *telemetry.SpanNode
	if tracer != nil {
		tr := telemetry.BeginTrace(telemetry.NewExchangeID(cfg.Seed, 0, uint64(seq)), 0, uint64(seq), "exchange")
		root = tr.Root
		defer func() {
			root.Fail(err)
			root.End()
			tracer.Collect(tr)
		}()
	}
	// Size the frame for the demo's worst-case uplink message (8 bits at
	// ChirpsPerBit chirps each) so every uplink bit gets a full window.
	fspan := root.Child("frame.build", -1)
	frame, err := netw.BuildDownlinkFrame(payload, 8*cfg.ChirpsPerBit)
	fspan.End()
	if err != nil {
		return err
	}
	durs := make([]float64, len(frame.Chirps))
	for i, c := range frame.Chirps {
		durs[i] = c.Params.Duration
	}
	fd := &netio.FrameDescriptor{
		Sequence:       seq,
		StartFrequency: cfg.Preset.Chirp.StartFrequency,
		Bandwidth:      cfg.Preset.Chirp.Bandwidth,
		SampleRate:     cfg.Preset.Chirp.SampleRate,
		Period:         cfg.Period,
		DownlinkSNRdB:  netw.Link().DownlinkSNRdB(tagRange),
		Durations:      durs,
	}
	tspan := root.Child("tag.roundtrip", 0)
	if err := conn.Send(peer, fd); err != nil {
		tspan.Fail(err)
		tspan.End()
		return err
	}

	// Collect the tag's report and plan (order is not guaranteed).
	var report *netio.TagReport
	var plan *netio.ModulationPlan
	for report == nil || plan == nil {
		msg, _, err := conn.Recv(5 * time.Second)
		if err != nil {
			err = fmt.Errorf("waiting for tag: %w", err)
			tspan.Fail(err)
			tspan.End()
			return err
		}
		switch m := msg.(type) {
		case *netio.TagReport:
			if m.Sequence == seq {
				report = m
			}
		case *netio.ModulationPlan:
			if m.Sequence == seq {
				plan = m
			}
		}
	}
	tspan.End()
	log.Printf("frame %d: tag report %v payload=%q", seq, report.Status, report.Payload)

	// Synthesize the backscatter the radar would observe, using the tag's
	// announced plan as the switching schedule.
	sspan := root.Child("scene.build", -1)
	bits := plan.GetBits()
	states := squareStates(bits, plan.F0, plan.F1, int(plan.ChirpsPerBit), cfg.Period, len(frame.Chirps))
	scene := radar.Scene{
		Clutter: cfg.Clutter,
		Tags: []radar.TagEcho{{
			Range:    tagRange,
			States:   states,
			PowerDBm: netw.Link().UplinkRxPowerDBm(tagRange),
		}},
	}
	sspan.End()
	ospan := root.Child("radar.observe", -1)
	capt := netw.Radar().Observe(frame, scene)
	ospan.End()
	cspan := root.Child("radar.if_correction", -1)
	cm, grid := netw.Radar().CorrectedMatrix(capt)
	matrix := radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm))
	cspan.End()
	dspan := root.Child("detect", 0)
	det, err := netw.Radar().DetectTag(matrix, grid, plan.F0, cfg.Period)
	if err != nil {
		det, err = netw.Radar().DetectTag(matrix, grid, plan.F1, cfg.Period)
	}
	if err != nil {
		err = fmt.Errorf("tag not detected: %w", err)
		dspan.Fail(err)
		dspan.End()
		return err
	}
	dspan.End()
	uspan := root.Child("uplink", 0)
	got, err := netw.Radar().DecodeUplinkFSK(matrix, det.Bin, radar.UplinkFSKConfig{
		F0: plan.F0, F1: plan.F1,
		ChirpsPerBit: int(plan.ChirpsPerBit),
		Period:       cfg.Period,
	})
	if err != nil {
		uspan.Fail(err)
		uspan.End()
		return err
	}
	uspan.SetAttr("bits", len(got))
	uspan.End()
	if len(got) > len(bits) {
		got = got[:len(bits)]
	}
	match, compared := 0, len(got)
	if len(bits) < compared {
		compared = len(bits)
	}
	for i := 0; i < compared; i++ {
		if got[i] == bits[i] {
			match++
		}
	}
	log.Printf("frame %d: tag localized at %.3f m (signature SNR %.1f dB), uplink %d/%d bits correct",
		seq, det.Range, det.SNRdB, match, compared)
	return nil
}

// squareStates mirrors the tag modulator's FSK schedule from the plan.
func squareStates(bits []bool, f0, f1 float64, chirpsPerBit int, period float64, n int) []bool {
	out := make([]bool, n)
	for k := 0; k < n; k++ {
		t := float64(k) * period
		freq := f0
		if bi := k / chirpsPerBit; bi < len(bits) && bits[bi] {
			freq = f1
		}
		out[k] = modHalf(t * freq)
	}
	return out
}

func modHalf(x float64) bool {
	frac := x - float64(int64(x))
	return frac < 0.5
}
