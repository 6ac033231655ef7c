package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biscatter/internal/splitmix"
)

// ExchangeID is the deterministic identity of one pipeline round. It is
// derived from the network's seed, the network's fleet-assigned identifier
// and a per-network exchange sequence counter — never from the wall clock —
// so the same run produces the same IDs every time, replay reproduces the
// IDs of the recorded run, and concurrent Fleet exchanges stay attributable
// when their telemetry interleaves into one stream.
type ExchangeID uint64

// NewExchangeID mixes (seed, network, seq) through splitmix64 so nearby
// sequences land far apart in ID space (IDs double as correlation keys in
// log search, where visual distinctness matters).
func NewExchangeID(seed int64, network int, seq uint64) ExchangeID {
	return ExchangeID(splitmix.Mix(uint64(seed)*splitmix.Gamma ^ uint64(network)<<48 ^ seq))
}

// String renders the ID as 16 hex digits, the form used in trace files and
// replay records.
func (id ExchangeID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanNode is one node of an exchange's causal span tree: a named stage (or
// per-node unit of a stage) with its offset and duration relative to the
// trace start, an optional error verdict, free-form attributes, and child
// spans. The zero Node field -1 marks spans that are not node-scoped.
//
// Concurrency: Child may be called on the same parent from parallel
// pipeline workers (appends are mutex-guarded); everything else on a
// SpanNode — End, Fail, SetAttr — must be called only by the goroutine that
// owns the span, exactly once, before the trace is collected. A collected
// trace is immutable and safe to read from any goroutine.
//
// All methods are nil-receiver-safe no-ops (Child returns nil), so
// instrumented code threads spans unconditionally and pays one nil check
// when tracing is disabled.
type SpanNode struct {
	Name     string         `json:"name"`
	Node     int            `json:"node"`
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Err      string         `json:"err,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`

	mu sync.Mutex
	tr *Trace
}

// Trace is one exchange's complete span tree plus its identity: the
// tracer's ring entry, the JSONL line, and the Chrome trace_event unit.
type Trace struct {
	ID      string    `json:"exchange_id"`
	Network int       `json:"network"`
	Seq     uint64    `json:"seq"`
	Start   time.Time `json:"start"`
	Root    *SpanNode `json:"root"`
}

// BeginTrace starts a trace whose root span opens now.
func BeginTrace(id ExchangeID, network int, seq uint64, rootName string) *Trace {
	tr := &Trace{ID: id.String(), Network: network, Seq: seq, Start: time.Now()}
	tr.Root = &SpanNode{Name: rootName, Node: -1, tr: tr}
	return tr
}

// Span times the trace's root span into h from the trace's own start
// reading, so the root's duration and h's sample agree; on a nil trace it
// is h.Span().
func (tr *Trace) Span(h *Histogram) Span {
	if tr == nil {
		return h.Span()
	}
	return Span{h: h, node: tr.Root, start: tr.Start}
}

// Child opens a child span under s, stamped with the current trace-relative
// offset. node is the network node index the span concerns, or -1. Returns
// nil (the inert span) on a nil receiver.
func (s *SpanNode) Child(name string, node int) *SpanNode {
	if s == nil {
		return nil
	}
	c := &SpanNode{Name: name, Node: node, tr: s.tr, StartNS: int64(time.Since(s.tr.Start))}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, recording its duration. No-op on a nil receiver.
func (s *SpanNode) End() {
	if s == nil {
		return
	}
	s.DurNS = int64(time.Since(s.tr.Start)) - s.StartNS
}

// Fail records a non-nil error on the span. No-op on nil receiver or error.
func (s *SpanNode) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// SetAttr attaches one free-form attribute (exported to Chrome trace args).
// No-op on a nil receiver.
func (s *SpanNode) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	s.Attrs[key] = v
}

// Walk visits the span and every descendant depth-first. No-op on nil.
func (s *SpanNode) Walk(fn func(*SpanNode)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Context propagation. The active span and exchange ID travel through the
// pipeline inside the context, so lower layers (radar, tag, parallel)
// attach their sub-stage spans without the core threading tracer handles
// through every signature. When tracing is disabled the context is never
// wrapped and the lookups below return their zero values after one cheap,
// allocation-free Value call.
type (
	spanCtxKey struct{}
)

// ContextWithSpan returns ctx carrying s as the active trace span.
func ContextWithSpan(ctx context.Context, s *SpanNode) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active trace span, or nil when tracing is
// disabled (every SpanNode method no-ops on nil).
func SpanFromContext(ctx context.Context) *SpanNode {
	s, _ := ctx.Value(spanCtxKey{}).(*SpanNode)
	return s
}

// Tracer keeps the most recent exchange traces in a bounded lock-free ring
// and records trips — an exchange error, a circuit breaker opening, a
// session eviction — so that when something goes wrong the recent history
// is already captured: the black box to attach to a bug report. Beyond its
// depth the oldest traces are overwritten; the dump's recorded count minus
// its resident traces is how many were dropped. Build one with NewTracer;
// a nil *Tracer is the disabled tracer: every method no-ops.
//
// Collect is wait-free: one atomic fetch-add plus one atomic pointer store,
// so collecting a completed trace never contends with the pipeline, with
// other networks sharing the tracer (a Fleet's networks collect into one), or
// with a concurrent dump. A dump taken while exchanges are landing sees
// each slot as either its old or its new trace — both complete, immutable
// trees — never a torn entry. A collected trace must no longer be mutated.
type Tracer struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
	trips atomic.Int64

	mu         sync.Mutex
	lastReason string
	lastTrip   time.Time
}

// DefaultTracerLimit is the ring depth when NewTracer is given a
// non-positive depth.
const DefaultTracerLimit = 4096

// NewTracer returns a tracer holding the last depth traces
// (DefaultTracerLimit when depth <= 0).
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTracerLimit
	}
	return &Tracer{slots: make([]atomic.Pointer[Trace], depth)}
}

// Collect stores one completed trace, overwriting the oldest once the ring
// is full. Safe on a nil receiver and for concurrent use.
func (t *Tracer) Collect(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	i := t.next.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(tr)
}

// Traces returns the resident traces, oldest first. Under concurrent
// collectors a slot may resolve to a trace newer than the call's nominal
// window — the ring is a best-effort recent history, not a serialized log.
// Empty on a nil receiver.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	total := t.next.Load()
	n := min(total, uint64(len(t.slots)))
	out := make([]*Trace, 0, n)
	for k := total - n; k < total; k++ {
		if tr := t.slots[k%uint64(len(t.slots))].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Trip records an abnormal event as the dump's latest trip. Safe on a nil
// receiver and for concurrent use.
func (t *Tracer) Trip(reason string) {
	if t == nil {
		return
	}
	t.trips.Add(1)
	t.mu.Lock()
	t.lastReason = reason
	t.lastTrip = time.Now()
	t.mu.Unlock()
}

// Trips returns how many times the tracer has been tripped.
func (t *Tracer) Trips() int64 {
	if t == nil {
		return 0
	}
	return t.trips.Load()
}

// tracerDump is the JSON shape of a tracer dump.
type tracerDump struct {
	Depth      int       `json:"depth"`
	Recorded   uint64    `json:"recorded"`
	Trips      int64     `json:"trips"`
	LastReason string    `json:"last_reason,omitempty"`
	LastTrip   time.Time `json:"last_trip"`
	Traces     []*Trace  `json:"traces"`
}

// WriteJSON writes the full dump — ring depth, lifetime count, trip
// history, and the resident traces oldest first — as indented JSON: the
// /debug/flight artifact. Safe on a nil receiver (writes an empty dump).
func (t *Tracer) WriteJSON(w io.Writer) error {
	d := tracerDump{Traces: []*Trace{}}
	if t != nil {
		t.mu.Lock()
		d.LastReason, d.LastTrip = t.lastReason, t.lastTrip
		t.mu.Unlock()
		d.Depth = len(t.slots)
		d.Recorded = t.next.Load()
		d.Trips = t.trips.Load()
		d.Traces = t.Traces()
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceJSONL writes traces as JSON lines — the grep-friendly export.
func WriteTraceJSONL(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tr := range traces {
		if err := enc.Encode(tr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace_event entry ("X" complete events only).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the trace_event container Perfetto and chrome://tracing
// both accept.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes traces in the Chrome trace_event JSON format,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each network
// maps to a process row (pid), each node-scoped span to a thread row
// (tid = node+1; non-node spans share tid 0), and timestamps are absolute
// microseconds from the trace start times, so traces from one run lay out
// on a common timeline.
func WriteChromeTrace(w io.Writer, traces []*Trace) error {
	out := chromeTraceFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, tr := range traces {
		base := float64(tr.Start.UnixNano()) / 1e3
		tr.Root.Walk(func(s *SpanNode) {
			ev := chromeEvent{
				Name: s.Name,
				Cat:  "exchange",
				Ph:   "X",
				TS:   base + float64(s.StartNS)/1e3,
				Dur:  float64(s.DurNS) / 1e3,
				PID:  tr.Network,
				TID:  s.Node + 1,
			}
			if s == tr.Root || s.Err != "" || len(s.Attrs) > 0 {
				ev.Args = map[string]any{}
				if s == tr.Root {
					ev.Args["exchange_id"] = tr.ID
					ev.Args["seq"] = tr.Seq
				}
				if s.Err != "" {
					ev.Args["err"] = s.Err
				}
				// Attribute keys merge in sorted order for deterministic
				// output (map iteration order would not survive a golden
				// test; json marshals map keys sorted anyway, but merging
				// deterministically keeps the code honest).
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					ev.Args[k] = s.Attrs[k]
				}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile writes traces to path, choosing the format by extension:
// ".json" selects Chrome trace_event (Perfetto-viewable), anything else
// JSON lines. This is the -trace-out dump format shared by the three
// commands.
func WriteTraceFile(path string, traces []*Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".json") {
		err = WriteChromeTrace(f, traces)
	} else {
		err = WriteTraceJSONL(f, traces)
	}
	if err != nil {
		return err
	}
	return f.Sync()
}
