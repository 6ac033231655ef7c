package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dumpOf decodes tr's WriteJSON dump.
func dumpOf(t *testing.T, tr *Tracer) tracerDump {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d tracerDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The tests below pin the tracer's ring: it is the flight recorder that
// /debug/flight dumps.

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewTracer(4)
	for i := 0; i < 10; i++ {
		f.Collect(BeginTrace(NewExchangeID(0, 0, uint64(i)), 0, uint64(i), "root"))
	}
	if d := dumpOf(t, f); d.Depth != 4 || d.Recorded != 10 {
		t.Fatalf("depth = %d, recorded = %d, want 4 and 10", d.Depth, d.Recorded)
	}
	snap := f.Traces()
	if len(snap) != 4 {
		t.Fatalf("Traces len = %d, want 4", len(snap))
	}
	// Oldest-first: the surviving window is seqs 6..9.
	for i, tr := range snap {
		if want := uint64(6 + i); tr.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d", i, tr.Seq, want)
		}
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewTracer(8)
	f.Collect(BeginTrace(NewExchangeID(0, 0, 0), 0, 0, "root"))
	f.Collect(BeginTrace(NewExchangeID(0, 0, 1), 0, 1, "root"))
	snap := f.Traces()
	if len(snap) != 2 || snap[0].Seq != 0 || snap[1].Seq != 1 {
		t.Fatalf("partial ring snapshot wrong: %d traces", len(snap))
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *Tracer
	f.Collect(BeginTrace(NewExchangeID(0, 0, 0), 0, 0, "root"))
	if f.Trips() != 0 || f.Traces() != nil {
		t.Fatal("nil tracer is not inert")
	}
	f.Trip("x")
	if f.Trips() != 0 {
		t.Fatal("Trip on nil tracer counted")
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traces": []`) {
		t.Fatalf("nil dump missing empty traces array: %s", buf.String())
	}
	if d := dumpOf(t, f); d.Depth != 0 || d.Recorded != 0 {
		t.Fatalf("nil dump = %+v", d)
	}
}

func TestFlightRecorderTrip(t *testing.T) {
	f := NewTracer(4)
	f.Collect(BeginTrace(NewExchangeID(0, 0, 0), 0, 0, "root"))
	f.Trip("breaker-open")
	if f.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", f.Trips())
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Trips      int64  `json:"trips"`
		LastReason string `json:"last_reason"`
		Traces     []json.RawMessage
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trips != 1 || dump.LastReason != "breaker-open" || len(dump.Traces) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
}

// TestFlightRecorderConcurrent exercises Collect racing Traces/WriteJSON/Trip
// — the scenario the lock-free ring exists for. Run under -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewTracer(8)
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Collect(BeginTrace(NewExchangeID(int64(w), 0, uint64(i)), 0, uint64(i), "root"))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		_ = f.Traces()
		_ = f.WriteJSON(io.Discard)
		f.Trip("concurrent")
	}
	wg.Wait()
	if d := dumpOf(t, f); d.Recorded != writers*perWriter || f.Trips() != 50 {
		t.Fatalf("recorded=%d trips=%d", d.Recorded, f.Trips())
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	m := New()
	m.Counter("core.exchange.count").Add(7)
	m.Gauge("fleet.queue.depth").Set(3.5)
	h := m.Histogram("core.stage.exchange.seconds")
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE core_exchange_count counter\n",
		"core_exchange_count_total 7\n",
		"# TYPE fleet_queue_depth gauge\n",
		"fleet_queue_depth 3.5\n",
		"# TYPE core_stage_exchange_seconds summary\n",
		`core_stage_exchange_seconds{quantile="0.5",window="3"} 2` + "\n",
		"core_stage_exchange_seconds_sum 6\n",
		"core_stage_exchange_seconds_count 3\n",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("OpenMetrics output does not end with # EOF")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"core.exchange.count": "core_exchange_count",
		"9lives":              "_9lives",
		"a-b c":               "a_b_c",
		"ok_name:sub":         "ok_name:sub",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Fatalf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	m := New()
	m.Counter("core.exchange.count").Inc()
	tracer := NewTracer(4)
	tracer.Collect(fixedTrace())
	srv := httptest.NewServer(DebugHandler(DebugConfig{Metrics: m, Tracer: tracer}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "core_exchange_count_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"core.exchange.count"`) {
		t.Fatalf("/metrics.json missing counter:\n%s", out)
	}
	if out := get("/debug/trace"); !strings.Contains(out, `"traceEvents"`) {
		t.Fatalf("/debug/trace not Chrome format:\n%s", out)
	}
	if out := get("/debug/trace?format=jsonl"); !strings.HasPrefix(out, `{"exchange_id"`) {
		t.Fatalf("/debug/trace?format=jsonl not JSONL:\n%s", out)
	}
	if out := get("/debug/flight"); !strings.Contains(out, `"recorded": 1`) {
		t.Fatalf("/debug/flight missing ring metadata:\n%s", out)
	}
}
