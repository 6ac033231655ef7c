// Package telemetry is the observability core of the simulator: lock-cheap
// metric primitives (atomic counters, float gauges, ring-buffer histograms
// with windowed quantiles), a per-stage timer API (Span/End), exchange span
// trees collected into one bounded ring with trip history (Tracer), and
// snapshot/export plumbing (expvar, JSON, a debug HTTP server).
//
// Everything is nil-tolerant by design: a nil *Metrics hands out nil
// primitives, and every method on a nil primitive is a no-op. Pipeline code
// can therefore thread one optional *Metrics through unconditionally — when
// telemetry is disabled the hot path pays a nil check and nothing else, and
// no time.Now calls are made.
//
// Determinism contract: metric *counts* (Counter values, histogram sample
// counts) depend only on the work performed, never on worker-pool width or
// scheduling; timing values (histogram quantiles, span durations) and live
// pool gauges are exempt. Tests pin the counts across worker counts.
package telemetry

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 level: a value that goes up and down (worker
// occupancy, last detection SNR) rather than accumulating.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by d via a CAS loop. Safe on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current level (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histWindow is the ring-buffer size of a Histogram: quantiles are computed
// over the most recent histWindow observations, while Count and Sum span the
// histogram's whole life.
const histWindow = 512

// Histogram accumulates float64 observations lock-free: a lifetime count and
// sum plus a ring buffer of the last histWindow samples for quantiles. Under
// heavy concurrency a ring slot may be overwritten by a racing writer more
// than histWindow observations ahead; the window is a statistical sample,
// not an exact tail, which is all quantile reporting needs.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	ring    [histWindow]atomic.Uint64
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := h.count.Add(1) - 1
	h.ring[i%histWindow].Store(math.Float64bits(v))
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			break
		}
	}
}

// Span returns a running timer that records its duration into h at End.
// On a nil receiver the span is inert and takes no clock reading.
func (h *Histogram) Span() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// HistogramStats is a point-in-time summary of a Histogram. Count and Sum
// span the histogram's lifetime; Mean, Min/Max and the quantiles all
// describe the ring-buffer window (the most recent observations), so
// Min ≤ Mean ≤ Max always holds.
type HistogramStats struct {
	// Count is the lifetime observation count.
	Count int64 `json:"count"`
	// Sum is the lifetime sum of observations.
	Sum float64 `json:"sum"`
	// Mean is the mean of the window, not Sum/Count.
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// Stats summarizes the histogram. Safe on a nil receiver (zero stats).
func (h *Histogram) Stats() HistogramStats {
	var s HistogramStats
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count == 0 {
		return s
	}
	n := s.Count
	if n > histWindow {
		n = histWindow
	}
	win := make([]float64, n)
	for i := range win {
		win[i] = math.Float64frombits(h.ring[i].Load())
	}
	sort.Float64s(win)
	s.Min, s.Max = win[0], win[len(win)-1]
	var sum float64
	for _, v := range win {
		sum += v
	}
	// Rounding can carry the mean of near-equal values an ulp past an end.
	s.Mean = min(max(sum/float64(n), s.Min), s.Max)
	s.P50 = Quantile(win, 0.50)
	s.P95 = Quantile(win, 0.95)
	s.P99 = Quantile(win, 0.99)
	return s
}

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// sorted slice: element ⌈q·n⌉ (1-based). Exported so tests can pin the
// histogram's quantile definition against an independent reference.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Span times one stage execution; obtain it from Metrics.Span,
// Metrics.StartSpan, Histogram.Span or Trace.Span and call End exactly
// once. Its two clock readings give both the histogram sample and, on a
// traced span, its trace node's timing. The zero Span is inert.
type Span struct {
	h     *Histogram
	node  *SpanNode
	start time.Time
}

// End records the elapsed seconds into the span's histogram and closes its
// trace node. No-op on an inert span.
func (s Span) End() {
	if s.h == nil && s.node == nil {
		return
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	if s.node != nil {
		s.node.DurNS = int64(d)
	}
}

// Fail records a non-nil error on the span's trace node.
func (s Span) Fail(err error) { s.node.Fail(err) }

// Metrics is a named registry of counters, gauges and histograms. The nil
// *Metrics is the disabled registry: it hands out nil primitives whose
// methods all no-op, so instrumented code needs no conditionals.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty metrics registry.
func New() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (the no-op counter) on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = &Histogram{}
		// Keyed by a copy, so name does not escape: a caller may build it
		// on the stack.
		m.hists[strings.Clone(name)] = h
	}
	return h
}

// Span starts a timer recording into the histogram "<stage>.seconds". On a
// nil registry the span is inert and no clock is read.
func (m *Metrics) Span(stage string) Span {
	if m == nil {
		return Span{}
	}
	return m.Histogram(stage + ".seconds").Span()
}

// StartSpan starts a pipeline stage's span: it records into the histogram
// "<stage>.seconds" and, when ctx carries a trace span, into a new child of
// it named stage (node is the network node index the stage concerns, or
// -1). The returned context carries that child, so lower layers nest under
// it. On a nil registry and an untraced ctx the span is inert: it reads no
// clock, allocates nothing and returns ctx.
func (m *Metrics) StartSpan(ctx context.Context, stage string, node int) (Span, context.Context) {
	var h *Histogram
	if m != nil {
		h = m.Histogram(stage + ".seconds")
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		return h.Span(), ctx
	}
	// Time from the child's own opening reading, so the sample and the
	// span's duration match to the nanosecond.
	c := parent.Child(stage, node)
	return Span{h: h, node: c, start: parent.tr.Start.Add(time.Duration(c.StartNS))}, ContextWithSpan(ctx, c)
}

// Snapshot is a point-in-time copy of a registry, safe to marshal, diff and
// hand across API boundaries. Map keys marshal in sorted order, so two
// snapshots with equal values produce identical JSON.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot captures every registered metric. Safe on a nil registry (empty
// maps), and safe concurrently with ongoing updates.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if m == nil {
		return s
	}
	m.mu.RLock()
	counters := make(map[string]*Counter, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for k, v := range m.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for k, v := range m.hists {
		hists[k] = v
	}
	m.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	return s
}
