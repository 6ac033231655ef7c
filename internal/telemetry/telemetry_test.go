package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	m := New()
	c := m.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if m.Counter("a.count") != c {
		t.Fatal("registry must return the same counter for the same name")
	}
	g := m.Gauge("a.level")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestHistogramQuantilesAgainstSortedReference pins the histogram's
// quantiles against an independently computed nearest-rank reference over
// the same samples.
func TestHistogramQuantilesAgainstSortedReference(t *testing.T) {
	m := New()
	h := m.Histogram("lat")
	// 500 values fit inside the ring window, so the quantiles are exact.
	vals := make([]float64, 500)
	for i := range vals {
		// A non-monotonic ordering so sortedness comes from Stats, not
		// insertion order.
		v := float64((i*7919)%500) + 1 // permutation of 1..500
		vals[i] = v
		h.Observe(v)
	}
	ref := append([]float64(nil), vals...)
	sort.Float64s(ref)
	refQ := func(q float64) float64 { return ref[int(math.Ceil(q*float64(len(ref))))-1] }

	s := h.Stats()
	if s.Count != 500 {
		t.Fatalf("count = %d, want 500", s.Count)
	}
	if want := 500.0 * 501 / 2; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if s.Min != 1 || s.Max != 500 {
		t.Fatalf("min/max = %v/%v, want 1/500", s.Min, s.Max)
	}
	for _, tc := range []struct {
		q    float64
		got  float64
		name string
	}{{0.50, s.P50, "p50"}, {0.95, s.P95, "p95"}, {0.99, s.P99, "p99"}} {
		if want := refQ(tc.q); tc.got != want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, want)
		}
	}
}

func TestHistogramWindowOverflow(t *testing.T) {
	h := New().Histogram("h")
	for i := 0; i < 3*histWindow; i++ {
		h.Observe(float64(i))
	}
	s := h.Stats()
	if s.Count != 3*histWindow {
		t.Fatalf("count = %d, want %d", s.Count, 3*histWindow)
	}
	// The window holds the last histWindow observations, so the minimum of
	// the window is the first sample of the final wrap.
	if s.Min != float64(2*histWindow) {
		t.Fatalf("window min = %v, want %v", s.Min, float64(2*histWindow))
	}
	if s.Max != float64(3*histWindow-1) {
		t.Fatalf("window max = %v, want %v", s.Max, float64(3*histWindow-1))
	}
}

// TestHistogramMeanWithinWindow drifts the observations downward across
// several window wraps — the shape of a warming-up stage timer — so the
// lifetime mean lies far above everything left in the window. Mean must
// describe the same window as Min and Max.
func TestHistogramMeanWithinWindow(t *testing.T) {
	h := New().Histogram("h")
	const n = 3*histWindow + 100
	for i := 0; i < n; i++ {
		h.Observe(float64(n - i))
		s := h.Stats()
		if !(s.Min <= s.Mean && s.Mean <= s.Max) {
			t.Fatalf("after %d observations: min %v, mean %v, max %v", i+1, s.Min, s.Mean, s.Max)
		}
	}
	// The window holds the values histWindow…1, whose mean is exact.
	s := h.Stats()
	if want := float64(histWindow+1) / 2; s.Mean != want {
		t.Fatalf("window mean = %v, want %v", s.Mean, want)
	}
	// Count and Sum stay lifetime.
	if want := float64(n) * float64(n+1) / 2; s.Count != n || s.Sum != want {
		t.Fatalf("count/sum = %d/%v, want %d/%v", s.Count, s.Sum, n, want)
	}
	// Near-equal values whose rounded mean overshoots them stay in bounds.
	g := New().Histogram("g")
	for i := 0; i < 3; i++ {
		g.Observe(0.1)
	}
	if s := g.Stats(); s.Mean != 0.1 {
		t.Fatalf("mean of three 0.1 observations = %v, want 0.1", s.Mean)
	}
}

// TestNilRegistryIsInert is the disabled-telemetry contract: every method
// chain off a nil *Metrics must be a safe no-op.
func TestNilRegistryIsInert(t *testing.T) {
	var m *Metrics
	m.Counter("x").Inc()
	m.Gauge("x").Set(1)
	m.Gauge("x").Add(1)
	m.Histogram("x").Observe(1)
	sp := m.Span("x")
	sp.End()
	m.Histogram("x").Span().End()
	if v := m.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	s := m.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestDisabledSpanIsAllocationFree pins the disabled-telemetry fast path:
// the per-chirp hot loops open a span per unit of work, so with telemetry
// off (nil registry → nil histogram) a Span/End pair must not touch the
// heap — Span is returned by value and End takes no clock reading.
func TestDisabledSpanIsAllocationFree(t *testing.T) {
	var m *Metrics
	h := m.Histogram("x")
	if allocs := testing.AllocsPerRun(100, func() {
		sp := h.Span()
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled histogram Span/End allocated %v times per op", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sp := m.Span("stage")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled metrics Span/End allocated %v times per op", allocs)
	}
	// The stage span with metrics and tracer both off: no histogram, no
	// parent trace node, no root trace.
	ctx := context.Background()
	var tr *Trace
	errX := errors.New("x")
	if allocs := testing.AllocsPerRun(100, func() {
		sp, sctx := m.StartSpan(ctx, "stage", 0)
		if sctx != ctx {
			t.Fatal("disabled stage span wrapped the context")
		}
		sp.Fail(errX)
		sp.End()
		root := tr.Span(h)
		root.End()
	}); allocs != 0 {
		t.Fatalf("disabled stage span allocated %v times per op", allocs)
	}
}

// TestStageSpanLookupIsAllocationFree pins that a stage span on a live
// registry finds its histogram by name without touching the heap once the
// histogram exists: the "<stage>.seconds" key is built on the stack.
func TestStageSpanLookupIsAllocationFree(t *testing.T) {
	m := New()
	ctx := context.Background()
	for _, stage := range []string{"tag.capture", "radar.uplink_demod"} {
		m.Histogram(stage + ".seconds")
		if allocs := testing.AllocsPerRun(100, func() {
			sp, _ := m.StartSpan(ctx, stage, 0)
			sp.End()
		}); allocs != 0 {
			t.Fatalf("stage %s: span allocated %v times per op", stage, allocs)
		}
		if got := m.Histogram(stage + ".seconds").Stats().Count; got != 101 {
			t.Fatalf("stage %s: %d samples, want 101", stage, got)
		}
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	m := New()
	sp := m.Span("stage.demo")
	time.Sleep(time.Millisecond)
	sp.End()
	s := m.Histogram("stage.demo.seconds").Stats()
	if s.Count != 1 {
		t.Fatalf("span count = %d, want 1", s.Count)
	}
	if s.Sum <= 0 {
		t.Fatalf("span duration = %v, want > 0", s.Sum)
	}
}

// TestConcurrentUpdatesRace hammers one registry from many goroutines —
// counters, gauges, histograms, registration and snapshots all at once —
// and checks the deterministic totals. Run under -race this is the
// lock-correctness proof for the metrics core.
func TestConcurrentUpdatesRace(t *testing.T) {
	m := New()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Counter("shared.count").Inc()
				m.Counter(fmt.Sprintf("per.%d.count", id)).Inc()
				m.Gauge("shared.level").Add(1)
				m.Gauge("shared.level").Add(-1)
				m.Histogram("shared.hist").Observe(float64(i))
				if i%64 == 0 {
					_ = m.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Counter("shared.count").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := m.Snapshot().Histograms["shared.hist"].Count; got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := m.Gauge("shared.level").Value(); got != 0 {
		t.Fatalf("gauge after balanced adds = %v, want 0", got)
	}
	snap := m.Snapshot()
	if got := snap.Counters["per.3.count"]; got != perG {
		t.Fatalf("per-goroutine counter = %d, want %d", got, perG)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		m := New()
		m.Counter("b").Add(2)
		m.Counter("a").Add(1)
		m.Gauge("g").Set(3.5)
		m.Histogram("h").Observe(1)
		return m.Snapshot()
	}
	j1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	m := New()
	m.Counter("demo.count").Add(7)
	m.Span("demo.stage").End()
	ln, err := ServeDebugConfig("127.0.0.1:0", DebugConfig{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.Counters["demo.count"] != 7 {
		t.Fatalf("snapshot over HTTP lost the counter: %+v", snap)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"biscatter"`) || !strings.Contains(vars, "demo.count") {
		t.Fatalf("/debug/vars missing published metrics: %.200s", vars)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: %.120s", body)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	one := []float64{42}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := Quantile(one, q); got != 42 {
			t.Fatalf("single-element q%v = %v", q, got)
		}
	}
}
