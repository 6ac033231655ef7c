package core

import (
	"strconv"

	"biscatter/internal/telemetry"
)

// coreTel holds the network's pre-resolved telemetry handles. The zero
// value (all nil) is the disabled state: every handle method is a nil-safe
// no-op, so the exchange hot path carries no conditionals beyond the ones
// guarding real extra work (BER tallies, the Doppler introspection pass).
type coreTel struct {
	m *telemetry.Metrics

	exchOK, exchErr *telemetry.Counter

	// Aggregate outcome counters across nodes.
	dlOK, dlErr   *telemetry.Counter
	detOK, detErr *telemetry.Counter
	upOK, upErr   *telemetry.Counter

	// Link-quality tallies; bits count every attempt, so a failed decode
	// scores its payload fully as errors (effective BER, erasures
	// included).
	dlBitErrs, dlBits *telemetry.Counter
	upBitErrs, upBits *telemetry.Counter

	nodes []nodeTel
}

// nodeTel is one node's outcome counters ("core.node.<i>.<stage>.<verdict>").
type nodeTel struct {
	dlOK, dlErr   *telemetry.Counter
	detOK, detErr *telemetry.Counter
	upOK, upErr   *telemetry.Counter
}

// enabled reports whether metric collection is on.
func (t coreTel) enabled() bool { return t.m != nil }

// node returns node i's counters; out of range (or disabled) yields inert
// nil handles.
func (t coreTel) node(i int) nodeTel {
	if i < len(t.nodes) {
		return t.nodes[i]
	}
	return nodeTel{}
}

// newCoreTel resolves the exchange engine's metric handles for nNodes
// nodes; a nil registry yields the inert zero value.
func newCoreTel(m *telemetry.Metrics, nNodes int) coreTel {
	if m == nil {
		return coreTel{}
	}
	t := coreTel{
		m:         m,
		exchOK:    m.Counter("core.exchange.ok"),
		exchErr:   m.Counter("core.exchange.err"),
		dlOK:      m.Counter("core.downlink.ok"),
		dlErr:     m.Counter("core.downlink.err"),
		detOK:     m.Counter("core.detect.ok"),
		detErr:    m.Counter("core.detect.err"),
		upOK:      m.Counter("core.uplink.ok"),
		upErr:     m.Counter("core.uplink.err"),
		dlBitErrs: m.Counter("core.downlink.bit_errors"),
		dlBits:    m.Counter("core.downlink.bits"),
		upBitErrs: m.Counter("core.uplink.bit_errors"),
		upBits:    m.Counter("core.uplink.bits"),
	}
	for i := 0; i < nNodes; i++ {
		p := "core.node." + strconv.Itoa(i)
		t.nodes = append(t.nodes, nodeTel{
			dlOK:   m.Counter(p + ".downlink.ok"),
			dlErr:  m.Counter(p + ".downlink.err"),
			detOK:  m.Counter(p + ".detect.ok"),
			detErr: m.Counter(p + ".detect.err"),
			upOK:   m.Counter(p + ".uplink.ok"),
			upErr:  m.Counter(p + ".uplink.err"),
		})
	}
	return t
}

// outcome bumps ok on nil err and errC otherwise.
func outcome(err error, ok, errC *telemetry.Counter) {
	if err != nil {
		errC.Inc()
		return
	}
	ok.Inc()
}

// Metrics returns a point-in-time snapshot of the network's telemetry
// registry: per-stage latency histograms with p50/p95/p99, per-node outcome
// counters, BER tallies, detection gauges and worker-pool statistics. The
// snapshot is empty when telemetry is disabled. Counter values are
// deterministic for a given workload at any worker count; timings and live
// pool gauges are not.
func (n *Network) Metrics() telemetry.Snapshot { return n.tel.m.Snapshot() }

// observeDoppler runs the radar's range-Doppler stage over the corrected
// matrix for introspection: the exchange decode path does not consume the
// map (slow-time demodulation is tone-matched instead), but the Doppler-FFT
// span and the peak gauges let operators watch slow-time behavior live —
// the observability needed before adaptive (B-ISAC-style) operation can
// react to it. Runs only when telemetry is enabled and never feeds back
// into results, so decode outputs are identical either way.
func (n *Network) observeDoppler(cm [][]complex128) {
	rd := n.radar.RangeDoppler(cm)
	peakPower, peakDoppler, peakRange := 0.0, 0, 0
	// Row 0 is the slow-time DC carrying static clutter; the modulating
	// nodes live in the non-zero Doppler rows.
	for d := 1; d < len(rd); d++ {
		for b, v := range rd[d] {
			if v > peakPower {
				peakPower, peakDoppler, peakRange = v, d, b
			}
		}
	}
	n.tel.m.Gauge("radar.doppler.peak_power").Set(peakPower)
	n.tel.m.Gauge("radar.doppler.peak_doppler_bin").Set(float64(peakDoppler))
	n.tel.m.Gauge("radar.doppler.peak_range_bin").Set(float64(peakRange))
}
