package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder keeps the last N exchange traces in a bounded lock-free
// ring — always on, always cheap — so that when something goes wrong the
// recent history is already captured: the "black box" to attach to a bug
// report. The exchange engine trips it on exchange errors and the link
// controller when a circuit breaker opens; each trip stamps its count and
// reason into the dump, which FlightRecorder.WriteJSON and the
// /debug/flight endpoint write on demand.
//
// Add is wait-free: one atomic fetch-add plus one atomic pointer store, so
// recording a completed trace never contends with the pipeline or with a
// concurrent dump. A dump taken while exchanges are landing sees each slot
// as either its old or its new trace — both complete, immutable trees —
// never a torn entry.
//
// A nil *FlightRecorder is the disabled recorder: every method no-ops.
type FlightRecorder struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
	trips atomic.Int64

	mu         sync.Mutex
	lastReason string
	lastTrip   time.Time
}

// DefaultFlightDepth is the ring depth when NewFlightRecorder is given a
// non-positive size.
const DefaultFlightDepth = 32

// NewFlightRecorder returns a recorder holding the last n traces
// (DefaultFlightDepth when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightDepth
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[Trace], n)}
}

// Depth returns the ring capacity (zero on a nil receiver).
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Add records one completed trace, overwriting the oldest entry once the
// ring is full. Safe on a nil receiver and for concurrent use.
func (f *FlightRecorder) Add(tr *Trace) {
	if f == nil || tr == nil {
		return
	}
	i := f.next.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(tr)
}

// Recorded returns the lifetime trace count (zero on a nil receiver).
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Snapshot returns the resident traces, oldest first. Under concurrent
// writers a slot may resolve to a trace newer than the snapshot's nominal
// window — the ring is a best-effort recent history, not a serialized log.
// Empty on a nil receiver.
func (f *FlightRecorder) Snapshot() []*Trace {
	if f == nil {
		return nil
	}
	total := f.next.Load()
	n := uint64(len(f.slots))
	if total < n {
		n = total
	}
	out := make([]*Trace, 0, n)
	for k := total - n; k < total; k++ {
		if tr := f.slots[k%uint64(len(f.slots))].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Trip records an abnormal event — an exchange error, a node quarantine —
// as the dump's latest trip. Safe on a nil receiver and for concurrent use.
func (f *FlightRecorder) Trip(reason string) {
	if f == nil {
		return
	}
	f.trips.Add(1)
	f.mu.Lock()
	f.lastReason = reason
	f.lastTrip = time.Now()
	f.mu.Unlock()
}

// Trips returns how many times the recorder has been tripped.
func (f *FlightRecorder) Trips() int64 {
	if f == nil {
		return 0
	}
	return f.trips.Load()
}

// flightDump is the JSON shape of a flight-recorder dump.
type flightDump struct {
	Depth      int       `json:"depth"`
	Recorded   uint64    `json:"recorded"`
	Trips      int64     `json:"trips"`
	LastReason string    `json:"last_reason,omitempty"`
	LastTrip   time.Time `json:"last_trip"`
	Traces     []*Trace  `json:"traces"`
}

// WriteJSON writes the full dump — ring metadata, trip history, and the
// resident traces oldest-first — as indented JSON: the artifact to attach
// to a bug report. Safe on a nil receiver (writes an empty dump).
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	d := flightDump{Traces: []*Trace{}}
	if f != nil {
		f.mu.Lock()
		d.LastReason, d.LastTrip = f.lastReason, f.lastTrip
		f.mu.Unlock()
		d.Depth = len(f.slots)
		d.Recorded = f.next.Load()
		d.Trips = f.trips.Load()
		if snap := f.Snapshot(); snap != nil {
			d.Traces = snap
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	return bw.Flush()
}
