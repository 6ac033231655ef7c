// Command biscatter-sim regenerates the paper's tables and figures from the
// simulation. Each experiment ID corresponds to one paper artifact (see
// DESIGN.md §4 for the index):
//
//	biscatter-sim                      # run everything
//	biscatter-sim fig12 fig13         # run selected experiments
//	biscatter-sim -frames 500 fig12   # more statistics per point
//	biscatter-sim -csv out/ all       # also write CSV files
//	biscatter-sim -list               # list experiment IDs
//
// Observability: -debug-addr serves live pipeline telemetry over HTTP
// (/metrics (OpenMetrics), /metrics.json, /debug/trace, /debug/flight,
// /debug/vars, /debug/pprof/) while experiments run, -metrics-out dumps the
// final telemetry snapshot as JSON on exit, and -trace-out dumps every
// collected exchange trace (.json selects Chrome trace_event format for
// chrome://tracing / Perfetto, anything else JSONL).
//
// Record/replay: the record subcommand runs a configurable network and
// captures every exchange — inputs, seeds, fault profile and outcomes —
// into a versioned binary record; replay re-runs a record and verifies the
// results are byte-identical:
//
//	biscatter-sim record -out run.bsctrace -rounds 20 -nodes 4 -seed 7
//	biscatter-sim replay run.bsctrace
//
// The chaos subcommand runs the full distributed stack in one process (an
// eval.Loopback run): a loopback netio gateway serving N tag clients with
// deterministic transport faults injected (drop/duplicate/reorder/corrupt),
// then verifies the captured exchange record replays byte-identically
// against the in-process oracle:
//
//	biscatter-sim chaos -tags 3 -rounds 5 -net-drop 0.1 -net-reorder 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/eval"
	"biscatter/internal/fault"
	"biscatter/internal/fmcw"
	"biscatter/internal/mac"
	"biscatter/internal/netio"
	"biscatter/internal/splitmix"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			os.Exit(runRecord(os.Args[2:]))
		case "replay":
			os.Exit(runReplay(os.Args[2:]))
		case "chaos":
			os.Exit(runChaos(os.Args[2:]))
		}
	}
	frames := flag.Int("frames", 0, "frames per BER point (0 = default 40; the paper uses 10000)")
	trials := flag.Int("trials", 0, "trials per localization/SNR point (0 = default 8)")
	seed := flag.Int64("seed", 1, "root random seed")
	workers := flag.Int("workers", 0, "worker-pool width for sweep fan-out (0 = all cores; results are identical for any width)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files into")
	debugAddr := flag.String("debug-addr", "", "serve live telemetry over HTTP on this address (e.g. localhost:6060)")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry snapshot to this JSON file")
	traceOut := flag.String("trace-out", "", "write collected exchange traces to this file (.json = Chrome trace_event, else JSONL)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, e := range eval.Registry {
			fmt.Println(e.ID)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range eval.Registry {
			ids = append(ids, e.ID)
		}
	}
	opts := eval.Options{Frames: *frames, Trials: *trials, Seed: *seed, Workers: *workers}
	if *debugAddr != "" || *metricsOut != "" {
		opts.Metrics = telemetry.New()
	}
	if *debugAddr != "" || *traceOut != "" {
		opts.Tracer = telemetry.NewTracer(0)
	}
	if *debugAddr != "" {
		ln, err := telemetry.ServeDebugConfig(*debugAddr, telemetry.DebugConfig{
			Metrics: opts.Metrics,
			Tracer:  opts.Tracer,
		})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer ln.Close()
		log.Printf("telemetry on http://%s/metrics.json (also /metrics, /debug/trace, /debug/vars, /debug/pprof/)", ln.Addr())
	}

	exit := 0
	for _, id := range ids {
		run, ok := eval.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			exit = 2
			continue
		}
		start := time.Now()
		res, err := run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			exit = 1
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: csv: %v\n", id, err)
				exit = 1
			}
		}
	}
	if *metricsOut != "" {
		if err := telemetry.WriteSnapshotFile(*metricsOut, opts.Metrics.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			exit = 1
		}
	}
	if *traceOut != "" {
		if err := telemetry.WriteTraceFile(*traceOut, opts.Tracer.Traces()); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// runRecord records a sequence of exchanges on a freshly built network into
// a replayable file.
func runRecord(args []string) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "exchange.bsctrace", "output record file")
	rounds := fs.Int("rounds", 10, "number of exchanges to record")
	nodes := fs.Int("nodes", 2, "number of backscatter nodes (ranges spread 2–6 m)")
	seed := fs.Int64("seed", 1, "root random seed")
	preset := fs.String("preset", "9ghz", "radar preset: 9ghz or 24ghz")
	payloadLen := fs.Int("payload", 4, "downlink payload length in bytes")
	jam := fs.Float64("jam", 0, "interference duty cycle in [0,1) (0 = clean channel)")
	capacity := fs.Int("capacity", 0, "TDMA frame-schedule capacity (0 = no schedule)")
	traceOut := fs.String("trace-out", "", "also write exchange traces to this file (.json = Chrome, else JSONL)")
	fs.Parse(args)

	cfg := core.Config{Seed: *seed}
	switch *preset {
	case "9ghz":
		cfg.Preset = fmcw.Radar9GHz()
	case "24ghz":
		cfg.Preset = fmcw.Radar24GHz()
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		return 2
	}
	for i := 0; i < *nodes; i++ {
		r := 2.0
		if *nodes > 1 {
			r += 4.0 * float64(i) / float64(*nodes-1)
		}
		cfg.Nodes = append(cfg.Nodes, core.NodeConfig{ID: uint8(i + 1), Range: r})
	}
	if *jam > 0 {
		cfg.Faults = &fault.Profile{
			Name:         fmt.Sprintf("jam-%.2f", *jam),
			Interference: &fault.Interference{TagPowerDBm: -38, RadarPowerDBm: -55, DutyCycle: *jam},
		}
	}
	if *capacity > 0 {
		sched, err := mac.NewFrameSchedule(*nodes, *capacity)
		if err != nil {
			fmt.Fprintf(os.Stderr, "record: %v\n", err)
			return 1
		}
		cfg.Schedule = sched
	}
	var opts []core.Option
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(0)
		opts = append(opts, core.WithTracer(tracer))
	}
	net, err := core.NewNetwork(cfg, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "record: %v\n", err)
		return 1
	}
	rec, err := core.NewExchangeRecorder(net)
	if err != nil {
		fmt.Fprintf(os.Stderr, "record: %v\n", err)
		return 1
	}
	start := time.Now()
	for i := 0; i < *rounds; i++ {
		payload := core.RandomPayload(*seed+int64(i)*977, *payloadLen)
		bits := map[int][]bool{}
		for n := 0; n < *nodes; n++ {
			bits[n] = uplinkPattern(*seed + int64(i*(*nodes)+n))
		}
		if cfg.Schedule != nil {
			_, err = rec.ExchangeScheduled(payload, bits)
		} else {
			_, err = rec.Exchange(payload, bits)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "record: round %d: %v\n", i, err)
			// Failed rounds are recorded too — replay must reproduce the
			// failure — so keep going.
		}
	}
	if err := trace.SaveExchange(*out, rec.Record()); err != nil {
		fmt.Fprintf(os.Stderr, "record: %v\n", err)
		return 1
	}
	fmt.Printf("recorded %d rounds (%d nodes, preset %s) to %s in %.1fs\n",
		*rounds, *nodes, *preset, *out, time.Since(start).Seconds())
	if tracer != nil {
		if err := telemetry.WriteTraceFile(*traceOut, tracer.Traces()); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			return 1
		}
	}
	return 0
}

// runReplay re-runs a recorded exchange sequence and verifies byte-identical
// results.
func runReplay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker-pool width for the replay (0 = all cores; results must be identical)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: biscatter-sim replay [-workers N] <record file>")
		return 2
	}
	rec, err := trace.LoadExchange(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		return 1
	}
	var opts []core.Option
	if *workers > 0 {
		opts = append(opts, core.WithWorkers(*workers))
	}
	start := time.Now()
	report, err := core.ReplayRecord(rec, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		return 1
	}
	if !report.OK() {
		fmt.Fprintf(os.Stderr, "replay DIVERGED: %d mismatches over %d rounds\n",
			len(report.Mismatches), report.Rounds)
		for _, m := range report.Mismatches {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		return 1
	}
	fmt.Printf("replay OK: %d rounds byte-identical in %.1fs\n",
		report.Rounds, time.Since(start).Seconds())
	return 0
}

// runChaos runs the distributed gateway/client stack over loopback with
// deterministic transport faults, then proves conformance: the captured
// exchange record must replay byte-identically on the in-process pipeline.
func runChaos(args []string) int {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	sf := netio.RegisterServiceFlags(fs)
	tags := fs.Int("tags", 3, "number of tag clients (>4 requires TDMA frame scheduling, see -frame-capacity)")
	rounds := fs.Int("rounds", 5, "number of exchange rounds")
	seed := fs.Int64("seed", 424, "network noise seed")
	out := fs.String("out", "", "also write the exchange record to this file")
	faults := netio.RegisterNetFaultFlags(fs)
	fs.Parse(args)
	if faults.Drop == 0 && faults.Reorder == 0 && faults.Duplicate == 0 && faults.Corrupt == 0 && faults.Delay == 0 {
		// Chaos without faults proves nothing; default to the acceptance duty.
		faults.Drop, faults.Reorder, faults.Duplicate = 0.10, 0.05, 0.03
	}
	pt, err := eval.Loopback{Tags: *tags, Seed: *seed, Rounds: *rounds, Service: *sf, Faults: faults}.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 1
	}
	fmt.Printf("chaos: %d tags × %d rounds over loopback %s in %.1fs (%d faults injected, %d session retries)\n",
		pt.Tags, pt.Rounds, sf.Transport, pt.Elapsed.Seconds(), pt.FaultsInjected, pt.GatewayRetries+pt.ClientRetries)
	if *out != "" {
		if err := trace.SaveExchange(*out, pt.Record); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			return 1
		}
		fmt.Printf("chaos: record written to %s\n", *out)
	}
	if !pt.ReplayOK {
		fmt.Fprintf(os.Stderr, "chaos: replay DIVERGED: %d mismatches over %d rounds\n", len(pt.Mismatches), pt.Rounds)
		for _, m := range pt.Mismatches {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		return 1
	}
	fmt.Printf("chaos: replay OK — %d distributed rounds byte-identical to the in-process oracle\n", pt.Rounds)
	return 0
}

// uplinkPattern derives a small deterministic uplink bit pattern from a seed.
func uplinkPattern(seed int64) []bool {
	x := splitmix.Mix(uint64(seed))
	bits := make([]bool, 4)
	for i := range bits {
		bits[i] = x>>(uint(i)*7)&1 == 1
	}
	return bits
}

func writeCSV(dir string, res *eval.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range res.Tables {
		name := res.ID
		if len(res.Tables) > 1 {
			name = fmt.Sprintf("%s_%d", res.ID, i)
		}
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(res.Tables[i].CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
