package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
)

// current is the registry the process-wide expvar export reads. expvar
// variables cannot be unpublished, so the export is published once and
// indirects through this pointer; the latest DebugHandler/PublishExpvar
// call wins.
var (
	current     atomic.Pointer[Metrics]
	publishOnce sync.Once
)

// PublishExpvar exports m's snapshot as the expvar variable "biscatter"
// (visible at /debug/vars wherever expvar is served). Calling it again
// redirects the existing variable to the new registry.
func PublishExpvar(m *Metrics) {
	current.Store(m)
	publishOnce.Do(func() {
		expvar.Publish("biscatter", expvar.Func(func() any {
			return current.Load().Snapshot()
		}))
	})
}

// DebugConfig selects what the debug mux serves: the metrics registry is
// the baseline; a Tracer adds /debug/trace and /debug/flight. Nil fields
// serve empty (but valid) responses on their endpoints.
type DebugConfig struct {
	// Metrics backs /metrics.json, /metrics and the expvar export.
	Metrics *Metrics
	// Tracer backs /debug/trace (its resident traces) and /debug/flight
	// (its dump).
	Tracer *Tracer
}

// DebugHandler returns the live-introspection mux:
//
//	/metrics.json  — indented JSON Snapshot of the registry
//	/metrics       — OpenMetrics text exposition (Prometheus-scrapeable)
//	/debug/trace   — collected exchange traces: Chrome trace_event JSON
//	                 (open in Perfetto), or JSONL with ?format=jsonl
//	/debug/flight  — the tracer's dump (ring depth, trips, resident traces)
//	/debug/vars    — expvar (includes the "biscatter" snapshot and Go runtime vars)
//	/debug/pprof/* — CPU, heap, goroutine and trace profiles
func DebugHandler(c DebugConfig) http.Handler {
	PublishExpvar(c.Metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Metrics.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = WriteOpenMetrics(w, c.Metrics.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		traces := c.Tracer.Traces()
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			_ = WriteTraceJSONL(w, traces)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, traces)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.Tracer.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebugConfig binds addr and serves DebugHandler(c) in a background
// goroutine, returning the listener so callers can log the resolved address
// (use ":0" to pick a free port) and close it on shutdown.
func ServeDebugConfig(addr string, c DebugConfig) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugHandler(c)}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}

// WriteSnapshotFile writes the snapshot as indented JSON to path — the
// -metrics-out dump format, also embedded into BENCH_exchange.json by
// scripts/bench_exchange.sh.
func WriteSnapshotFile(path string, s Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
