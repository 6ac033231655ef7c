package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biscatter/internal/fault"
	"biscatter/internal/fmcw"
	"biscatter/internal/mac"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// recordNetwork builds a small deployment, records nRounds exchanges, and
// returns the record after a disk round trip — replay must work from the
// serialized artifact, not the in-memory one.
func recordRounds(t *testing.T, cfg Config, nRounds int) *trace.ExchangeRecord {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewExchangeRecorder(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRounds; i++ {
		payload := RandomPayload(int64(i+1), 4)
		bits := map[int][]bool{0: {true, false, true, i%2 == 0}}
		if len(cfg.Nodes) > 1 {
			bits[1] = []bool{i%2 == 1, true}
		}
		if _, err := rec.Exchange(payload, bits); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	path := t.TempDir() + "/rec.bsctrace"
	if err := trace.SaveExchange(path, rec.Record()); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadExchange(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func replayMustMatch(t *testing.T, rec *trace.ExchangeRecord, opts ...Option) {
	t.Helper()
	report, err := ReplayRecord(rec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != len(rec.Rounds) {
		t.Fatalf("replayed %d rounds, want %d", report.Rounds, len(rec.Rounds))
	}
	if !report.OK() {
		for _, m := range report.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("replay diverged from record")
	}
}

func TestReplayByteEqualAcrossPresets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		preset fmcw.Preset
	}{
		{"9GHz", fmcw.Radar9GHz()},
		{"24GHz", fmcw.Radar24GHz()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := recordRounds(t, Config{
				Preset: tc.preset,
				Nodes:  []NodeConfig{{ID: 1, Range: 2.5}, {ID: 2, Range: 4}},
				Seed:   41,
			}, 2)
			replayMustMatch(t, rec)
		})
	}
}

// TestCommittedRecordsReplay replays the record committed per radar preset
// under testdata/records (2 nodes, 3 rounds): each must replay with no
// mismatch, a cross-version oracle for the whole round beside the golden
// vectors, and re-encode to exactly its committed bytes. Run with -update
// to rewrite them after an intentional change to the round or the format.
func TestCommittedRecordsReplay(t *testing.T) {
	for _, tc := range []struct {
		file   string
		preset fmcw.Preset
	}{
		{"9ghz.bsctrace", fmcw.Radar9GHz()},
		{"24ghz.bsctrace", fmcw.Radar24GHz()},
	} {
		t.Run(tc.preset.Name, func(t *testing.T) {
			path := filepath.Join("testdata", "records", tc.file)
			if *updateGolden {
				rec := recordRounds(t, Config{
					Preset: tc.preset,
					Nodes:  []NodeConfig{{ID: 1, Range: 2.2}, {ID: 2, Range: 3.7}},
					Seed:   23,
				}, 3)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := trace.SaveExchange(path, rec); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing record %s (run go test -run TestCommittedRecordsReplay -update ./internal/core): %v", path, err)
			}
			rec, err := trace.ReadExchange(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Rounds) != 3 || len(rec.Spec.Nodes) != 2 {
				t.Fatalf("%s holds %d rounds of %d nodes, want 3 of 2", path, len(rec.Rounds), len(rec.Spec.Nodes))
			}
			replayMustMatch(t, rec)
			var got bytes.Buffer
			if err := trace.WriteExchange(&got, rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s re-encodes to %d bytes that differ from its %d committed bytes", path, got.Len(), len(want))
			}
		})
	}
}

func TestReplayByteEqualFaulted(t *testing.T) {
	rec := recordRounds(t, Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.5}, {ID: 2, Range: 5}},
		Seed:  99,
		Faults: &fault.Profile{
			Name:         "replay-jam",
			Interference: &fault.Interference{TagPowerDBm: -38, RadarPowerDBm: -55, DutyCycle: 0.3},
			Dropout:      &fault.Dropout{Rate: 0.05},
		},
	}, 3)
	if rec.Spec.Faults == nil {
		t.Fatal("fault profile lost in serialization")
	}
	replayMustMatch(t, rec)
}

func TestReplayByteEqualAtDifferentWorkerCount(t *testing.T) {
	rec := recordRounds(t, Config{
		Nodes:   []NodeConfig{{ID: 1, Range: 2.5}, {ID: 2, Range: 4}},
		Seed:    7,
		Workers: 1,
	}, 2)
	// Worker count is outside the determinism contract; replay wider.
	replayMustMatch(t, rec, WithWorkers(4))
}

func TestReplayByteEqualScheduled(t *testing.T) {
	sched, err := mac.NewFrameSchedule(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 2}, {ID: 2, Range: 3}, {ID: 3, Range: 4}, {ID: 4, Range: 5},
		},
		Schedule: sched,
		Seed:     17,
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewExchangeRecorder(net)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[int][]bool{0: {true}, 2: {false, true}}
	if _, err := rec.ExchangeScheduled([]byte{0x5A}, bits); err != nil {
		t.Fatal(err)
	}
	if got := rec.Record().Spec.ScheduleCapacity; got != 2 {
		t.Fatalf("recorded schedule capacity %d, want 2", got)
	}
	replayMustMatch(t, rec.Record())
}

func TestRecorderRequiresFreshNetwork(t *testing.T) {
	net, err := NewNetwork(Config{Nodes: []NodeConfig{{ID: 1, Range: 2.5}}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Exchange([]byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExchangeRecorder(net); err == nil {
		t.Fatal("recorder accepted a network with exchanges already run")
	}
}

func TestReplayDetectsTamperedRecord(t *testing.T) {
	rec := recordRounds(t, Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.5}},
		Seed:  5,
	}, 1)
	rec.Rounds[0].Outcomes[0].DownlinkPayload[0] ^= 0xFF
	report, err := ReplayRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("replay failed to flag a tampered outcome")
	}
	if !strings.Contains(report.Mismatches[0].Field, "downlink_payload") {
		t.Fatalf("mismatch field = %q", report.Mismatches[0].Field)
	}
}

func TestExchangeTraceTree(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	net, err := NewNetwork(Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.5}, {ID: 2, Range: 4}},
		Seed:  11,
	}, WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Exchange([]byte{0x42}, map[int][]bool{0: {true, false}}); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("collected %d traces, want 1", len(traces))
	}
	tr := traces[0]
	wantID := telemetry.NewExchangeID(11, 0, 0).String()
	if tr.ID != wantID || tr.Seq != 0 || tr.Network != 0 {
		t.Fatalf("trace identity = (%s, net %d, seq %d), want (%s, 0, 0)", tr.ID, tr.Network, tr.Seq, wantID)
	}
	counts := map[string]int{}
	tr.Root.Walk(func(s *telemetry.SpanNode) { counts[s.Name]++ })
	for name, want := range map[string]int{
		"core.exchange":      1,
		"packet.frame_build": 1,
		"tag.downlink":       1,
		"tag.capture":        2,
		"tag.decode":         2,
		"packet.deframe":     2,
		"tag.uplink_states":  1,
		"radar.observe":      1,
		"radar.corrected":    1,
		"radar.background":   1,
		"radar.detect":       1,
		"radar.uplink_demod": 1,
	} {
		if counts[name] != want {
			t.Errorf("span %q count = %d, want %d (all: %v)", name, counts[name], want, counts)
		}
	}
	if counts["parallel.for"] == 0 {
		t.Error("no parallel.for spans recorded")
	}
	// Spans must close: every non-root span has a non-negative duration and
	// the root spans the round.
	tr.Root.Walk(func(s *telemetry.SpanNode) {
		if s.DurNS < 0 {
			t.Errorf("span %q has negative duration %d", s.Name, s.DurNS)
		}
	})
	if tr.Root.DurNS <= 0 {
		t.Error("root span never ended")
	}
}

func TestExchangeTraceDeterministicIDs(t *testing.T) {
	run := func() []string {
		tracer := telemetry.NewTracer(0)
		net, err := NewNetwork(Config{
			Nodes: []NodeConfig{{ID: 1, Range: 2.5}},
			Seed:  23,
		}, WithTracer(tracer))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := net.Exchange([]byte{byte(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		ids := []string{}
		for _, tr := range tracer.Traces() {
			ids = append(ids, tr.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("got %d IDs, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run IDs diverge at %d: %s vs %s", i, a[i], b[i])
		}
		if i > 0 && a[i] == a[i-1] {
			t.Fatalf("consecutive exchanges share ID %s", a[i])
		}
	}
}

// TestFlightRecorderCapturesExchanges pins the tracer as the exchange's
// black box: a bounded ring of the latest traces, and a failing exchange
// both collects its trace and trips the same tracer.
func TestFlightRecorderCapturesExchanges(t *testing.T) {
	flight := telemetry.NewTracer(4)
	net, err := NewNetwork(Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.5}},
		Seed:  13,
	}, WithTracer(flight))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := net.Exchange([]byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var dump struct {
		Recorded   uint64 `json:"recorded"`
		Trips      int64  `json:"trips"`
		LastReason string `json:"last_reason"`
	}
	readDump := func() {
		t.Helper()
		var buf bytes.Buffer
		if err := flight.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
	}
	readDump()
	if dump.Recorded != 6 || dump.Trips != 0 {
		t.Fatalf("flight recorded %d exchanges with %d trips, want 6 and 0", dump.Recorded, dump.Trips)
	}
	snap := flight.Traces()
	if len(snap) != 4 {
		t.Fatalf("flight ring holds %d, want 4", len(snap))
	}
	if snap[len(snap)-1].Seq != 5 {
		t.Fatalf("newest resident trace seq = %d, want 5", snap[len(snap)-1].Seq)
	}

	t.Run("failing exchange", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := net.ExchangeContext(ctx, []byte{6}, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		readDump()
		if dump.Recorded != 7 || dump.Trips != 1 || !strings.Contains(dump.LastReason, context.Canceled.Error()) {
			t.Fatalf("after a failed exchange: recorded %d, trips %d, last reason %q", dump.Recorded, dump.Trips, dump.LastReason)
		}
		snap := flight.Traces()
		if last := snap[len(snap)-1]; last.Seq != 6 || last.Root.Err == "" {
			t.Fatalf("newest trace seq %d err %q, want seq 6 with the exchange error", last.Seq, last.Root.Err)
		}
	})
}

func TestFleetPropagatesTracing(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	fleet := NewFleet(FleetConfig{Engines: 2, Tracer: tracer})
	defer fleet.Close()
	var handles []*FleetNetwork
	for i := 0; i < 2; i++ {
		fn, err := fleet.AddNetwork(Config{
			Nodes: []NodeConfig{{ID: uint8(i + 1), Range: 2.5}},
			Seed:  50,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, fn)
	}
	for _, fn := range handles {
		if _, err := fn.Exchange([]byte{0x7}, nil); err != nil {
			t.Fatal(err)
		}
	}
	traces := tracer.Traces()
	if len(traces) != 2 {
		t.Fatalf("collected %d traces, want 2", len(traces))
	}
	nets := map[int]bool{}
	ids := map[string]bool{}
	for _, tr := range traces {
		nets[tr.Network] = true
		ids[tr.ID] = true
	}
	if !nets[0] || !nets[1] {
		t.Fatalf("trace networks = %v, want {0,1}", nets)
	}
	if len(ids) != 2 {
		t.Fatal("same-seed fleet networks share an exchange ID; NetworkID not mixed in")
	}
}
