package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"biscatter/internal/telemetry"
)

// fourNodeConfig mirrors the BenchmarkExchange node layout so the telemetry
// tests (and the bench script's -metrics-out dump) describe the same
// workload the benchmark times. Only the seed differs: the benchmark's seed
// gives the farthest node a noise draw that fails its downlink CRC, and
// these tests need every stage of every node to succeed.
func fourNodeConfig(workers int) Config {
	return Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 1.5},
			{ID: 2, Range: 2.6},
			{ID: 3, Range: 3.8},
			{ID: 4, Range: 5.1},
		},
		ChirpsPerBit: 64,
		Seed:         15,
		Workers:      workers,
	}
}

func fourNodeUplink() map[int][]bool {
	return map[int][]bool{
		0: {true, false, true, true},
		1: {false, true, false, false},
		2: {true, true, false, true},
		3: {false, false, true, true},
	}
}

// exchangeStageNames lists every stage the exchange times, each both as a
// histogram "<name>.seconds" and as a trace span: the round, its round-level
// stages and the per-node units.
var exchangeStageNames = []string{
	"core.exchange", "packet.frame_build", "tag.downlink", "tag.capture",
	"tag.decode", "packet.deframe", "tag.uplink_states", "radar.observe",
	"radar.corrected", "radar.background", "radar.detect", "radar.uplink_demod",
}

// TestExchangeTelemetryStages is the acceptance check of the telemetry
// subsystem: one full exchange with telemetry attached must light up every
// pipeline stage span and every per-node outcome counter. When
// BISCATTER_METRICS_OUT is set the final snapshot is written there —
// scripts/bench_exchange.sh uses that to embed a per-stage breakdown in its
// report.
func TestExchangeTelemetryStages(t *testing.T) {
	m := telemetry.New()
	n, err := NewNetwork(fourNodeConfig(0), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Exchange(RandomPayload(5, 8), fourNodeUplink())
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.Nodes {
		if nr.DownlinkErr != nil || nr.DetectionErr != nil || nr.UplinkErr != nil {
			t.Fatalf("node %d: exchange not clean: dl=%v det=%v up=%v",
				i, nr.DownlinkErr, nr.DetectionErr, nr.UplinkErr)
		}
		if nr.UplinkDiag.PeakPower <= 0 || nr.UplinkDiag.PeakToSidelobeDB == 0 {
			t.Errorf("node %d: UplinkDiag not populated: %+v", i, nr.UplinkDiag)
		}
	}
	snap := n.Metrics()

	stages := append([]string{
		"radar.synthesis", "radar.range_fft", "radar.if_correction",
		"radar.doppler_fft", "radar.matched_filter",
	}, exchangeStageNames...)
	for _, st := range stages {
		h, ok := snap.Histograms[st+".seconds"]
		if !ok || h.Count == 0 {
			t.Errorf("stage %s: no span samples recorded (%+v)", st, h)
		}
	}
	for i := range res.Nodes {
		for _, c := range []string{"downlink.ok", "detect.ok", "uplink.ok"} {
			name := "core.node." + strconv.Itoa(i) + "." + c
			if snap.Counters[name] == 0 {
				t.Errorf("counter %s: want non-zero", name)
			}
		}
	}
	for _, c := range []string{
		"core.exchange.ok", "core.downlink.ok", "core.detect.ok", "core.uplink.ok",
		"core.downlink.bits", "core.uplink.bits",
		"parallel.tasks_queued", "parallel.tasks_completed",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s: want non-zero", c)
		}
	}
	for _, g := range []string{
		"radar.detection.snr_db", "radar.detection.psl_db", "radar.doppler.peak_power",
	} {
		if snap.Gauges[g] == 0 {
			t.Errorf("gauge %s: want non-zero", g)
		}
	}
	// A clean exchange has no downlink bit errors and no uplink bit errors.
	if snap.Counters["core.downlink.bit_errors"] != 0 {
		t.Errorf("downlink bit errors on a clean exchange: %d", snap.Counters["core.downlink.bit_errors"])
	}
	if snap.Counters["core.uplink.bit_errors"] != 0 {
		t.Errorf("uplink bit errors on a clean exchange: %d", snap.Counters["core.uplink.bit_errors"])
	}

	if path := os.Getenv("BISCATTER_METRICS_OUT"); path != "" {
		if err := telemetry.WriteSnapshotFile(path, snap); err != nil {
			t.Fatalf("BISCATTER_METRICS_OUT: %v", err)
		}
	}
}

// TestExchangeTelemetryDeterminism extends the worker-count invariance
// contract to telemetry: counter values, histogram sample counts and gauges
// outside the live "parallel." pool group must all depend only on the work
// done, never on how many workers did it. Timings (histogram sums and
// quantiles) are exempt.
func TestExchangeTelemetryDeterminism(t *testing.T) {
	payload := RandomPayload(5, 8)
	run := func(workers int) telemetry.Snapshot {
		n, err := NewNetwork(fourNodeConfig(workers), WithMetrics(telemetry.New()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for round := 0; round < 3; round++ {
			if _, err := n.Exchange(payload, fourNodeUplink()); err != nil {
				t.Fatalf("workers=%d round=%d: %v", workers, round, err)
			}
		}
		return n.Metrics()
	}
	serialSnap := run(1)
	wideSnap := run(8)

	for name, v := range serialSnap.Counters {
		if w := wideSnap.Counters[name]; w != v {
			t.Errorf("counter %s: serial=%d wide=%d", name, v, w)
		}
	}
	if len(serialSnap.Counters) != len(wideSnap.Counters) {
		t.Errorf("counter sets differ: %d vs %d", len(serialSnap.Counters), len(wideSnap.Counters))
	}
	for name, h := range serialSnap.Histograms {
		if w := wideSnap.Histograms[name]; w.Count != h.Count {
			t.Errorf("histogram %s: sample count serial=%d wide=%d", name, h.Count, w.Count)
		}
	}
	for name, v := range serialSnap.Gauges {
		if strings.HasPrefix(name, "parallel.") {
			continue // live pool state, legitimately worker-dependent
		}
		if w := wideSnap.Gauges[name]; w != v {
			t.Errorf("gauge %s: serial=%v wide=%v", name, v, w)
		}
	}
}

// TestExchangeWithoutTelemetryYieldsEmptySnapshot pins the disabled
// default: no registry, no data, and Metrics() is still safe to call.
func TestExchangeWithoutTelemetryYieldsEmptySnapshot(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Exchange([]byte("q"), nil); err != nil {
		t.Fatal(err)
	}
	snap := n.Metrics()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("disabled telemetry must yield an empty snapshot: %+v", snap)
	}
}

// TestStageTimersAgree pins that each exchange stage is timed once: with
// metrics and a tracer attached together, every stage's histogram holds one
// sample per span of that name, its sum is the spans' summed duration, and
// every span lies inside its parent. It runs an unscheduled and a 2-group
// scheduled network at widths 1 and 2.
func TestStageTimersAgree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("four-node/workers=%d", workers), func(t *testing.T) {
			checkStageTimers(t, fourNodeConfig(workers), false)
		})
		t.Run(fmt.Sprintf("scheduled/workers=%d", workers), func(t *testing.T) {
			cfg := fourNodeScheduledConfig(t)
			cfg.Workers = workers
			checkStageTimers(t, cfg, true)
		})
	}
}

func checkStageTimers(t *testing.T, cfg Config, scheduled bool) {
	t.Helper()
	m, tracer := telemetry.New(), telemetry.NewTracer(0)
	n, err := NewNetwork(cfg, WithMetrics(m), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	if scheduled {
		_, err = n.ExchangeScheduled(RandomPayload(5, 8), fourNodeUplink())
	} else {
		_, err = n.Exchange(RandomPayload(5, 8), fourNodeUplink())
	}
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int64{}
	durNS := map[string]int64{}
	var inside func(parent *telemetry.SpanNode)
	inside = func(parent *telemetry.SpanNode) {
		count[parent.Name]++
		durNS[parent.Name] += parent.DurNS
		for _, c := range parent.Children {
			if c.StartNS < parent.StartNS || c.StartNS+c.DurNS > parent.StartNS+parent.DurNS {
				t.Errorf("span %s [%d, +%d] outside its parent %s [%d, +%d]",
					c.Name, c.StartNS, c.DurNS, parent.Name, parent.StartNS, parent.DurNS)
			}
			inside(c)
		}
	}
	want := 1
	if scheduled {
		want = cfg.Schedule.Frames()
	}
	traces := tracer.Traces()
	if len(traces) != want {
		t.Fatalf("collected %d traces, want %d", len(traces), want)
	}
	for _, tr := range traces {
		inside(tr.Root)
	}
	snap := n.Metrics()
	for _, name := range exchangeStageNames {
		h := snap.Histograms[name+".seconds"]
		if h.Count == 0 || h.Count != count[name] {
			t.Errorf("stage %s: histogram count %d, spans %d", name, h.Count, count[name])
		}
		if diff := h.Sum*1e9 - float64(durNS[name]); diff > float64(h.Count) || -diff > float64(h.Count) {
			t.Errorf("stage %s: histogram sum %.0f ns, spans %d ns", name, h.Sum*1e9, durNS[name])
		}
	}
}
