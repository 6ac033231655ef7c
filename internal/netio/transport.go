package netio

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	"biscatter/internal/telemetry"
)

// Transport errors. Recv distinguishes deadline expiry from socket closure
// with sentinels so supervision loops can poll with a timeout (ErrTimeout is
// routine) while treating a closed socket (ErrClosed) as shutdown. Both are
// matched with errors.Is.
var (
	// ErrTimeout means Recv's deadline expired before a datagram arrived.
	ErrTimeout = errors.New("netio: receive timeout")
	// ErrClosed means the underlying socket is closed.
	ErrClosed = errors.New("netio: connection closed")
	// ErrAddrInUse means the listen address is already bound by another
	// process. Matched with errors.Is so a server can return a clean
	// "another gateway is running" diagnosis instead of an opaque bind
	// error.
	ErrAddrInUse = errors.New("netio: listen address already in use")
)

// Transport kinds selectable by ListenTransport (and the -transport flag).
const (
	// TransportUDP is one datagram per message (the default).
	TransportUDP = "udp"
	// TransportTCP is length-prefixed frames over TCP streams.
	TransportTCP = "tcp"
)

// Conn is the message-level endpoint the session layer (Gateway, Client)
// runs over: one datagram per framed Message. *Node is the UDP
// implementation; tests may substitute their own.
type Conn interface {
	// Send marshals and transmits one message to addr.
	Send(addr *net.UDPAddr, m Message) error
	// Recv blocks for up to timeout (0 = forever) for the next datagram.
	// Malformed datagrams are returned as errors (with the sender when
	// known), never silently dropped.
	Recv(timeout time.Duration) (Message, *net.UDPAddr, error)
	// Addr returns the endpoint's bound address.
	Addr() *net.UDPAddr
	// Close releases the socket.
	Close() error
}

// Transport is the raw-datagram boundary underneath a Node — exactly the
// surface a deterministic network-fault injector wraps (drop, duplicate,
// reorder, corrupt, delay happen to datagrams, not to parsed messages).
// *net.UDPConn satisfies it via udpTransport.
type Transport interface {
	WriteTo(b []byte, addr *net.UDPAddr) (int, error)
	ReadFrom(b []byte) (int, *net.UDPAddr, error)
	SetReadDeadline(t time.Time) error
	LocalAddr() net.Addr
	Close() error
}

// udpTransport adapts *net.UDPConn to Transport.
type udpTransport struct{ c *net.UDPConn }

func (u udpTransport) WriteTo(b []byte, addr *net.UDPAddr) (int, error) {
	return u.c.WriteToUDP(b, addr)
}
func (u udpTransport) ReadFrom(b []byte) (int, *net.UDPAddr, error) { return u.c.ReadFromUDP(b) }
func (u udpTransport) SetReadDeadline(t time.Time) error            { return u.c.SetReadDeadline(t) }
func (u udpTransport) LocalAddr() net.Addr                          { return u.c.LocalAddr() }
func (u udpTransport) Close() error                                 { return u.c.Close() }

// Node is a UDP endpoint speaking the netio protocol, one datagram per
// message. A Node is single-threaded: Recv reuses one receive buffer, so
// only one goroutine may call Recv at a time (Send is safe concurrently
// with Recv — UDP writes do not touch the receive path).
type Node struct {
	tr        Transport
	buf       []byte
	faults    *NetFaultProfile
	metrics   *telemetry.Metrics
	malformed *telemetry.Counter // netio.recv.malformed
}

// Option customizes a Node at Listen time.
type Option func(*Node)

// WithMetrics attaches a telemetry registry: malformed-datagram rejects
// count into netio.recv.malformed, and the fault injector (when enabled)
// publishes netio.fault.* counters.
func WithMetrics(m *telemetry.Metrics) Option {
	return func(n *Node) { n.metrics = m }
}

// WithNetFaults wraps the node's transport with the deterministic
// network-fault injector (see NetFaultProfile). A nil profile is a no-op.
func WithNetFaults(p *NetFaultProfile) Option {
	return func(n *Node) { n.faults = p }
}

// Listen opens a UDP endpoint on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts ...Option) (*Node, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, wrapListenErr(addr, err)
	}
	return newNode(udpTransport{conn}, opts...), nil
}

// ListenTransport opens an endpoint of the named transport kind on addr:
// TransportUDP ("" defaults to it) for one datagram per message,
// TransportTCP for length-prefixed frames over streams. Both return the
// same *Node surface, so everything above the Transport seam — fault
// injection, session supervision, the chaos suite — runs unchanged on
// either.
func ListenTransport(kind, addr string, opts ...Option) (*Node, error) {
	switch kind {
	case "", TransportUDP:
		return Listen(addr, opts...)
	case TransportTCP:
		tr, err := listenStream(addr)
		if err != nil {
			return nil, err
		}
		return newNode(tr, opts...), nil
	default:
		return nil, fmt.Errorf("netio: unknown transport %q (want %s or %s)", kind, TransportUDP, TransportTCP)
	}
}

// newNode assembles a Node over a raw transport, applying options and
// wrapping the fault injector innermost of the options.
func newNode(tr Transport, opts ...Option) *Node {
	n := &Node{tr: tr, buf: make([]byte, 65536)}
	for _, opt := range opts {
		opt(n)
	}
	if n.metrics != nil {
		n.malformed = n.metrics.Counter("netio.recv.malformed")
	}
	if n.faults != nil {
		n.tr = newFaultTransport(n.tr, *n.faults, n.metrics)
	}
	return n
}

// wrapListenErr tags an address-in-use bind failure with the ErrAddrInUse
// sentinel while keeping the original error text.
func wrapListenErr(addr string, err error) error {
	if errors.Is(err, syscall.EADDRINUSE) {
		return fmt.Errorf("netio: listen %q: %w: %v", addr, ErrAddrInUse, err)
	}
	return fmt.Errorf("netio: listen %q: %w", addr, err)
}

// Addr returns the node's bound address.
func (n *Node) Addr() *net.UDPAddr {
	return n.tr.LocalAddr().(*net.UDPAddr)
}

// Close releases the socket.
func (n *Node) Close() error { return n.tr.Close() }

// Send marshals and transmits one message to addr.
func (n *Node) Send(addr *net.UDPAddr, m Message) error {
	buf, err := Marshal(m)
	if err != nil {
		return err
	}
	if _, err := n.tr.WriteTo(buf, addr); err != nil {
		return fmt.Errorf("netio: send %v: %w", m.Type(), err)
	}
	return nil
}

// Recv blocks for up to timeout (0 = forever) and returns the next valid
// message and its sender. Deadline expiry surfaces as ErrTimeout and socket
// closure as ErrClosed (both via errors.Is); malformed datagrams are
// returned as errors with the sender attached — and counted into the
// netio.recv.malformed telemetry counter — not silently dropped.
func (n *Node) Recv(timeout time.Duration) (Message, *net.UDPAddr, error) {
	if timeout > 0 {
		if err := n.tr.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			// A socket closed between receives fails here, not in ReadFrom.
			return nil, nil, classifyRecvErr(err)
		}
		defer n.tr.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	nr, from, err := n.tr.ReadFrom(n.buf)
	if err != nil {
		return nil, nil, classifyRecvErr(err)
	}
	m, err := Unmarshal(n.buf[:nr])
	if err != nil {
		n.malformed.Inc()
		return nil, from, err
	}
	return m, from, nil
}

// classifyRecvErr maps a socket read error onto the package sentinels while
// keeping the original text.
func classifyRecvErr(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}
