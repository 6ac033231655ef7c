package netio

import (
	"flag"
	"time"
)

// ServiceFlags are the distributed-mode flags shared verbatim by
// biscatter-radar, biscatter-tag and biscatter-sim. Keeping them in one
// registration helper (instead of per-binary flag.Duration calls) is what
// the flag-parity test pins: every binary must expose the same names with
// the same defaults and usage strings.
type ServiceFlags struct {
	// Listen is the gateway bind address (radar side).
	Listen string
	// Connect is the gateway address to dial (tag side).
	Connect string
	// Heartbeat is the session heartbeat interval.
	Heartbeat time.Duration
	// SessionTimeout is the liveness deadline before eviction.
	SessionTimeout time.Duration
	// Transport selects the session transport: TransportUDP or TransportTCP.
	Transport string
	// FrameCapacity bounds concurrent tags per TDMA frame group (0 = the
	// deployment's tone-table capacity; mac.ScheduleFor gives the analytic
	// bound when tones are auto-assigned).
	FrameCapacity int
	// FrameTimeout is the per-frame-group round barrier timeout (0 = the
	// gateway's RoundTimeout).
	FrameTimeout time.Duration
}

// RegisterServiceFlags registers the shared distributed-mode flags on fs.
func RegisterServiceFlags(fs *flag.FlagSet) *ServiceFlags {
	sf := &ServiceFlags{}
	fs.StringVar(&sf.Listen, "listen", "", "gateway bind address, e.g. 127.0.0.1:9100 (serve mode)")
	fs.StringVar(&sf.Connect, "connect", "", "gateway address to dial, e.g. 127.0.0.1:9100 (client mode)")
	fs.DurationVar(&sf.Heartbeat, "heartbeat", DefaultHeartbeatInterval, "session heartbeat interval")
	fs.DurationVar(&sf.SessionTimeout, "session-timeout", DefaultSessionTimeout, "evict a session silent for this long")
	fs.StringVar(&sf.Transport, "transport", TransportUDP, "session transport: udp (datagrams) or tcp (length-prefixed stream)")
	fs.IntVar(&sf.FrameCapacity, "frame-capacity", 0, "tags per TDMA frame group (0 = tone-table capacity)")
	fs.DurationVar(&sf.FrameTimeout, "frame-timeout", 0, "per-frame-group round barrier timeout (0 = round timeout)")
	return sf
}

// RegisterNetFaultFlags registers the deterministic network-fault-injection
// flags on fs, shared (like ServiceFlags) by every binary that opens a
// netio socket. The returned profile is all-zero by default — passing it to
// WithNetFaults then injects nothing.
func RegisterNetFaultFlags(fs *flag.FlagSet) *NetFaultProfile {
	p := &NetFaultProfile{}
	fs.Int64Var(&p.Seed, "net-seed", 1, "network fault injection seed")
	fs.Float64Var(&p.Drop, "net-drop", 0, "probability a datagram is dropped")
	fs.Float64Var(&p.Duplicate, "net-duplicate", 0, "probability a datagram is duplicated")
	fs.Float64Var(&p.Reorder, "net-reorder", 0, "probability a datagram is reordered past its successor")
	fs.Float64Var(&p.Corrupt, "net-corrupt", 0, "probability one bit of a datagram is flipped")
	fs.Float64Var(&p.Delay, "net-delay", 0, "probability a datagram is delayed")
	fs.DurationVar(&p.MaxDelay, "net-max-delay", 0, "upper bound for injected delay (default 20ms)")
	return p
}
