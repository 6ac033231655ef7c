package netio

import (
	"net"
	"sync"
	"time"

	"biscatter/internal/splitmix"
	"biscatter/internal/telemetry"
)

// NetFaultProfile configures the deterministic network-fault injector. It
// follows the internal/fault discipline: every decision is a stateless
// internal/splitmix draw keyed by (Seed, stream, datagram index), so a given
// profile replays the exact same loss pattern on every run regardless of
// timing — which is what lets the chaos conformance suite pin byte-exact
// outcomes under 10% loss.
//
// Faults apply on the send side of the wrapped transport: each outgoing
// datagram is independently dropped, duplicated, reordered (held back one
// send), corrupted (one deterministic bit flip — the receiver's CRC rejects
// it, exercising the malformed-datagram path) or delayed. Probabilities are
// in [0, 1] and independent; a datagram can be both duplicated and delayed.
type NetFaultProfile struct {
	// Seed keys every draw.
	Seed int64
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Duplicate is the probability a datagram is sent twice.
	Duplicate float64
	// Reorder is the probability a datagram is held and transmitted after
	// the next one instead of in order.
	Reorder float64
	// Corrupt is the probability one bit of the datagram is flipped.
	Corrupt float64
	// Delay is the probability a datagram is deferred by a uniform draw in
	// (0, MaxDelay].
	Delay float64
	// MaxDelay bounds the injected delay (default 20ms when Delay > 0).
	MaxDelay time.Duration
}

// enabled reports whether the profile injects anything.
func (p NetFaultProfile) enabled() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Corrupt > 0 || p.Delay > 0
}

// Draw streams, one per impairment so enabling one never shifts another's
// decisions (the internal/fault stream-isolation property).
const (
	netStreamDrop       uint64 = 1
	netStreamDuplicate  uint64 = 2
	netStreamReorder    uint64 = 3
	netStreamCorrupt    uint64 = 4
	netStreamDelay      uint64 = 5
	netStreamCorruptPos uint64 = 6
	netStreamDelayDur   uint64 = 7
)

// fate is the injector's verdict on one datagram of n bytes. Every draw is
// taken, even where an earlier verdict pre-empts a later one in WriteTo.
type fate struct {
	drop, dup, reorder, delay bool
	flipBit                   int           // bit to corrupt, or -1
	delayBy                   time.Duration // meaningful when delay
}

// fate draws the verdicts for datagram idx.
func (p NetFaultProfile) fate(idx uint64, n int) fate {
	hit := func(prob float64, stream uint64) bool {
		return prob > 0 && splitmix.Uniform(p.Seed, stream, idx) < prob
	}
	f := fate{
		drop:    hit(p.Drop, netStreamDrop),
		dup:     hit(p.Duplicate, netStreamDuplicate),
		reorder: hit(p.Reorder, netStreamReorder),
		delay:   hit(p.Delay, netStreamDelay),
		flipBit: -1,
	}
	if hit(p.Corrupt, netStreamCorrupt) {
		f.flipBit = int(splitmix.Bits(p.Seed, netStreamCorruptPos, idx) % uint64(8*n))
	}
	if f.delay {
		f.delayBy = time.Duration(splitmix.Uniform(p.Seed, netStreamDelayDur, idx) * float64(p.MaxDelay))
	}
	return f
}

// faultTransport wraps a Transport with send-side fault injection. The
// datagram index (and the held reorder slot) are mutex-protected so
// concurrent senders still consume a single deterministic index sequence.
type faultTransport struct {
	inner Transport
	p     NetFaultProfile

	mu   sync.Mutex
	idx  uint64
	held *heldDatagram

	dropped, duplicated, reordered, corrupted, delayed *telemetry.Counter
}

type heldDatagram struct {
	buf  []byte
	addr *net.UDPAddr
}

func newFaultTransport(inner Transport, p NetFaultProfile, m *telemetry.Metrics) Transport {
	if !p.enabled() {
		return inner
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 20 * time.Millisecond
	}
	ft := &faultTransport{inner: inner, p: p}
	if m != nil {
		ft.dropped = m.Counter("netio.fault.dropped")
		ft.duplicated = m.Counter("netio.fault.duplicated")
		ft.reordered = m.Counter("netio.fault.reordered")
		ft.corrupted = m.Counter("netio.fault.corrupted")
		ft.delayed = m.Counter("netio.fault.delayed")
	}
	return ft
}

func (ft *faultTransport) WriteTo(b []byte, addr *net.UDPAddr) (int, error) {
	ft.mu.Lock()
	idx := ft.idx
	ft.idx++
	release := ft.held
	ft.held = nil

	n := len(b)
	f := ft.p.fate(idx, n)

	if f.drop {
		ft.mu.Unlock()
		ft.dropped.Inc()
		ft.flush(release)
		// The caller sees a successful send: the network ate the datagram.
		return n, nil
	}

	// Work on a copy so corruption/delay never mutate or retain the
	// caller's buffer.
	out := append([]byte(nil), b...)
	if f.flipBit >= 0 {
		out[f.flipBit/8] ^= 1 << (f.flipBit % 8)
		ft.corrupted.Inc()
	}

	if f.reorder {
		// Hold this datagram; it goes out after the next send.
		ft.held = &heldDatagram{buf: out, addr: addr}
		ft.mu.Unlock()
		ft.reordered.Inc()
		ft.flush(release)
		return n, nil
	}
	ft.mu.Unlock()

	if f.delay {
		ft.delayed.Inc()
		time.AfterFunc(f.delayBy, func() {
			ft.inner.WriteTo(out, addr) //nolint:errcheck // post-close errors are expected
		})
		ft.flush(release)
		return n, nil
	}

	_, err := ft.inner.WriteTo(out, addr)
	if f.dup {
		ft.duplicated.Inc()
		ft.inner.WriteTo(out, addr) //nolint:errcheck // best-effort duplicate
	}
	ft.flush(release)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// flush transmits a previously held (reordered) datagram.
func (ft *faultTransport) flush(h *heldDatagram) {
	if h == nil {
		return
	}
	ft.inner.WriteTo(h.buf, h.addr) //nolint:errcheck // best-effort release
}

func (ft *faultTransport) ReadFrom(b []byte) (int, *net.UDPAddr, error) {
	return ft.inner.ReadFrom(b)
}

func (ft *faultTransport) SetReadDeadline(t time.Time) error {
	return ft.inner.SetReadDeadline(t)
}

func (ft *faultTransport) LocalAddr() net.Addr { return ft.inner.LocalAddr() }

func (ft *faultTransport) Close() error {
	// Release any held datagram so a graceful shutdown doesn't strand the
	// last message.
	ft.mu.Lock()
	h := ft.held
	ft.held = nil
	ft.mu.Unlock()
	ft.flush(h)
	return ft.inner.Close()
}
