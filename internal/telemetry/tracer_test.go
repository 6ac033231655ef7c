package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExchangeIDDeterministic(t *testing.T) {
	a := NewExchangeID(42, 3, 17)
	b := NewExchangeID(42, 3, 17)
	if a != b {
		t.Fatalf("same inputs produced different IDs: %v vs %v", a, b)
	}
	if len(a.String()) != 16 {
		t.Fatalf("ID %q is not 16 hex digits", a.String())
	}
	// Distinct coordinates must land on distinct IDs (the whole point of the
	// mixer: nearby sequences far apart in ID space).
	seen := map[ExchangeID]string{}
	for seed := int64(0); seed < 4; seed++ {
		for net := 0; net < 4; net++ {
			for seq := uint64(0); seq < 64; seq++ {
				id := NewExchangeID(seed, net, seq)
				key := fmt.Sprintf("%d/%d/%d", seed, net, seq)
				if prev, dup := seen[id]; dup {
					t.Fatalf("collision: %s and %s both map to %v", prev, key, id)
				}
				seen[id] = key
			}
		}
	}
}

// TestExchangeIDKnownAnswers pins exact IDs, recorded before the mixer
// moved to internal/splitmix: recorded traces and flight dumps key on them.
func TestExchangeIDKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		network int
		seq     uint64
		want    uint64
	}{
		{0, 0, 0, 0xe220a8397b1dcdaf},
		{1, 0, 1, 0xe99ff867dbf682c9},
		{424, 0, 1, 0x29636a12d56eb4d8},
		{424, 3, 17, 0xce32ca85944e8183},
		{-5, 65535, 1 << 40, 0x6b0e98affddb3db9},
	} {
		if got := uint64(NewExchangeID(c.seed, c.network, c.seq)); got != c.want {
			t.Errorf("NewExchangeID(%d, %d, %d) = %#016x, want %#016x", c.seed, c.network, c.seq, got, c.want)
		}
	}
}

func TestSpanTreeShapeAndWalk(t *testing.T) {
	tr := BeginTrace(NewExchangeID(1, 0, 0), 0, 0, "exchange")
	down := tr.Root.Child("downlink", -1)
	for n := 0; n < 3; n++ {
		c := down.Child("node.downlink", n)
		c.SetAttr("ok", true)
		c.End()
	}
	down.End()
	up := tr.Root.Child("uplink", -1)
	up.Fail(fmt.Errorf("decode failed"))
	up.End()
	tr.Root.End()

	var names []string
	tr.Root.Walk(func(s *SpanNode) { names = append(names, s.Name) })
	want := []string{"exchange", "downlink", "node.downlink", "node.downlink", "node.downlink", "uplink"}
	if len(names) != len(want) {
		t.Fatalf("walk visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk order %v, want %v", names, want)
		}
	}
	if up.Err != "decode failed" {
		t.Fatalf("Fail did not record error: %q", up.Err)
	}
	if down.Children[1].Node != 1 {
		t.Fatalf("child node index = %d, want 1", down.Children[1].Node)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *SpanNode
	if c := s.Child("x", 0); c != nil {
		t.Fatalf("nil span Child returned non-nil")
	}
	s.End()
	s.Fail(fmt.Errorf("ignored"))
	s.SetAttr("k", 1)
	s.Walk(func(*SpanNode) { t.Fatal("walk on nil span visited a node") })

	var tracer *Tracer
	tracer.Collect(&Trace{})
	if tracer.Traces() != nil || tracer.Trips() != 0 {
		t.Fatal("nil tracer is not inert")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	ctx := context.Background()
	if s := SpanFromContext(ctx); s != nil {
		t.Fatal("unwrapped context carried a span")
	}
	tr := BeginTrace(NewExchangeID(7, 0, 0), 0, 0, "root")
	ctx = ContextWithSpan(ctx, tr.Root)
	if got := SpanFromContext(ctx); got != tr.Root {
		t.Fatal("span did not round-trip through context")
	}
}

func TestConcurrentChildAppend(t *testing.T) {
	tr := BeginTrace(NewExchangeID(9, 0, 0), 0, 0, "root")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := tr.Root.Child("unit", w)
				c.End()
			}
		}(w)
	}
	wg.Wait()
	if len(tr.Root.Children) != workers*50 {
		t.Fatalf("lost children: %d, want %d", len(tr.Root.Children), workers*50)
	}
}

func TestTracerLimitEviction(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < DefaultTracerLimit+3; i++ {
		tr.Collect(BeginTrace(NewExchangeID(0, 0, uint64(i)), 0, uint64(i), "root"))
	}
	d := dumpOf(t, tr)
	if len(d.Traces) != DefaultTracerLimit || d.Depth != DefaultTracerLimit {
		t.Fatalf("resident = %d, depth = %d, want %d", len(d.Traces), d.Depth, DefaultTracerLimit)
	}
	if dropped := d.Recorded - uint64(len(d.Traces)); dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", dropped)
	}
	traces := tr.Traces()
	if first, last := traces[0].Seq, traces[len(traces)-1].Seq; first != 3 || last != DefaultTracerLimit+2 {
		t.Fatalf("eviction kept wrong traces: seqs %d..%d", first, last)
	}
}

// fixedTrace builds a trace with hand-set timestamps so exports are
// byte-reproducible.
func fixedTrace() *Trace {
	tr := &Trace{
		ID:      NewExchangeID(2024, 1, 5).String(),
		Network: 1,
		Seq:     5,
		Start:   time.Unix(1700000000, 0).UTC(),
	}
	tr.Root = &SpanNode{Name: "exchange", Node: -1, DurNS: 4000, tr: tr}
	down := &SpanNode{Name: "downlink", Node: -1, StartNS: 500, DurNS: 1500, tr: tr}
	n0 := &SpanNode{Name: "node.downlink", Node: 0, StartNS: 600, DurNS: 1000, tr: tr,
		Attrs: map[string]any{"ok": true, "bits": 40}}
	up := &SpanNode{Name: "uplink", Node: -1, StartNS: 2500, DurNS: 1000, Err: "boom", tr: tr}
	down.Children = []*SpanNode{n0}
	tr.Root.Children = []*SpanNode{down, up}
	return tr
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Trace{fixedTrace()}); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "exchange",
   "cat": "exchange",
   "ph": "X",
   "ts": 1700000000000000,
   "dur": 4,
   "pid": 1,
   "tid": 0,
   "args": {
    "exchange_id": "cf7b22450d8eec26",
    "seq": 5
   }
  },
  {
   "name": "downlink",
   "cat": "exchange",
   "ph": "X",
   "ts": 1700000000000000.5,
   "dur": 1.5,
   "pid": 1,
   "tid": 0
  },
  {
   "name": "node.downlink",
   "cat": "exchange",
   "ph": "X",
   "ts": 1700000000000000.5,
   "dur": 1,
   "pid": 1,
   "tid": 1,
   "args": {
    "bits": 40,
    "ok": true
   }
  },
  {
   "name": "uplink",
   "cat": "exchange",
   "ph": "X",
   "ts": 1700000000000002.5,
   "dur": 1,
   "pid": 1,
   "tid": 0,
   "args": {
    "err": "boom"
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Fatalf("chrome trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteTraceJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, []*Trace{fixedTrace(), fixedTrace()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	var back Trace
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if back.ID != fixedTrace().ID || back.Root.Children[0].Children[0].Node != 0 {
		t.Fatal("JSONL round trip lost structure")
	}
}

func TestWriteTraceFileFormats(t *testing.T) {
	dir := t.TempDir()
	tr := []*Trace{fixedTrace()}
	jsonPath := dir + "/trace.json"
	jsonlPath := dir + "/trace.jsonl"
	if err := WriteTraceFile(jsonPath, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(jsonlPath, tr); err != nil {
		t.Fatal(err)
	}
	chrome, jsonl := readFile(t, jsonPath), readFile(t, jsonlPath)
	if !strings.Contains(chrome, "traceEvents") {
		t.Fatal(".json file is not Chrome trace_event format")
	}
	if strings.Contains(jsonl, "traceEvents") || !strings.HasPrefix(jsonl, "{\"exchange_id\"") {
		t.Fatal(".jsonl file is not JSON lines format")
	}
}
