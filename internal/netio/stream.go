package netio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// streamMaxFrame bounds one length-prefixed frame. It matches the Node
// receive buffer: any message that fits a UDP datagram fits a stream frame,
// so the two transports carry the same protocol envelope.
const streamMaxFrame = 1 << 16

// streamDialTimeout bounds the implicit dial a WriteTo to an unknown peer
// performs. On loopback a dead peer fails fast (connection refused); the
// bound keeps a WAN-grade black hole from stalling the sending loop.
const streamDialTimeout = time.Second

// streamTimeoutError satisfies net.Error with Timeout() == true so
// classifyRecvErr maps an expired ReadFrom deadline onto ErrTimeout exactly
// as it does for a UDP socket.
type streamTimeoutError struct{}

func (streamTimeoutError) Error() string   { return "netio: stream read deadline exceeded" }
func (streamTimeoutError) Timeout() bool   { return true }
func (streamTimeoutError) Temporary() bool { return true }

// streamFrame is one received message with its sender, as surfaced by
// ReadFrom.
type streamFrame struct {
	payload []byte
	from    *net.UDPAddr
}

// streamConn is one TCP connection with a write lock: a caller's sends and
// the fault injector's delayed ones may interleave, and a frame (length
// prefix + payload) must hit the stream atomically.
type streamConn struct {
	c  net.Conn
	mu sync.Mutex
}

func (sc *streamConn) writeFrame(buf []byte) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, err := sc.c.Write(buf)
	return err
}

// streamTransport is the length-prefixed TCP implementation of Transport:
// the same one-Message-per-frame envelope as UDP, carried over streams. It
// keeps UDP's addressing surface (peers are *net.UDPAddr values) so the
// session layer, the fault injector and the Node above it are transport-
// agnostic: a connection is dialed on first write to an unknown peer,
// accepted connections are keyed by the peer's remote address, and every
// received frame reports that address as its sender. Frames are
// self-contained, so the injector's drop/duplicate/reorder/corrupt/delay
// decisions compose unchanged — corruption hits the marshaled message (the
// CRC rejects it at Recv), never the framing, because faults are injected
// above the framing layer.
type streamTransport struct {
	ln    *net.TCPListener
	local *net.UDPAddr

	frames chan streamFrame
	done   chan struct{}

	mu       sync.Mutex
	conns    map[string]*streamConn
	deadline time.Time
	closed   bool

	wg sync.WaitGroup
}

// listenStream opens the TCP listener side of a stream transport.
func listenStream(addr string) (*streamTransport, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: resolve %q: %w", addr, err)
	}
	ln, err := net.ListenTCP("tcp", ta)
	if err != nil {
		return nil, wrapListenErr(addr, err)
	}
	s := &streamTransport{
		ln:     ln,
		local:  udpAddrOf(ln.Addr()),
		frames: make(chan streamFrame, 64),
		done:   make(chan struct{}),
		conns:  make(map[string]*streamConn),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// udpAddrOf projects any IP-endpoint address onto the *net.UDPAddr shape
// the netio session layer addresses peers with.
func udpAddrOf(a net.Addr) *net.UDPAddr {
	switch t := a.(type) {
	case *net.UDPAddr:
		return t
	case *net.TCPAddr:
		return &net.UDPAddr{IP: t.IP, Port: t.Port, Zone: t.Zone}
	default:
		ua, err := net.ResolveUDPAddr("udp", a.String())
		if err != nil {
			return &net.UDPAddr{}
		}
		return ua
	}
}

func (s *streamTransport) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.AcceptTCP()
		if err != nil {
			return // listener closed
		}
		from := udpAddrOf(c.RemoteAddr())
		sc := &streamConn{c: c}
		if !s.addConn(from.String(), sc) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(from.String(), sc, from)
	}
}

// addConn registers a connection under key, refusing after Close. An
// existing connection under the same key (a peer redialing before its old
// conn's reader noticed the close) is superseded and closed.
func (s *streamTransport) addConn(key string, sc *streamConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if old, ok := s.conns[key]; ok && old != sc {
		old.c.Close()
	}
	s.conns[key] = sc
	return true
}

// removeConn closes and forgets a connection (if still current).
func (s *streamTransport) removeConn(key string, sc *streamConn) {
	s.mu.Lock()
	if cur, ok := s.conns[key]; ok && cur == sc {
		delete(s.conns, key)
	}
	s.mu.Unlock()
	sc.c.Close()
}

// serveConn reads length-prefixed frames off one connection until it breaks.
// A poisoned length prefix (zero or oversized — framing desync from a
// misbehaving peer) drops the connection: the peer redials on its next send
// and the session ARQ covers whatever was in flight.
func (s *streamTransport) serveConn(key string, sc *streamConn, from *net.UDPAddr) {
	defer s.wg.Done()
	defer s.removeConn(key, sc)
	r := bufio.NewReaderSize(sc.c, 4096)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > streamMaxFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		select {
		case s.frames <- streamFrame{payload: buf, from: from}:
		case <-s.done:
			return
		}
	}
}

// connFor returns the connection to addr, dialing one if none exists (the
// client side of the transport reaches its gateway this way).
func (s *streamTransport) connFor(key string, addr *net.UDPAddr) (*streamConn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("netio: stream write: %w", net.ErrClosed)
	}
	if sc, ok := s.conns[key]; ok {
		s.mu.Unlock()
		return sc, nil
	}
	s.mu.Unlock()

	c, err := net.DialTimeout("tcp", addr.String(), streamDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netio: stream dial %v: %w", addr, err)
	}
	sc := &streamConn{c: c}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("netio: stream write: %w", net.ErrClosed)
	}
	if racer, ok := s.conns[key]; ok {
		// A concurrent dial (or an inbound accept) won: use it.
		s.mu.Unlock()
		c.Close()
		return racer, nil
	}
	s.conns[key] = sc
	s.mu.Unlock()
	// Frames the peer sends back on this connection surface under the
	// dialed address, which is exactly where the session layer expects
	// replies from.
	s.wg.Add(1)
	go s.serveConn(key, sc, addr)
	return sc, nil
}

// WriteTo frames b and sends it to addr over the peer's stream, dialing on
// first contact. Implements Transport.
func (s *streamTransport) WriteTo(b []byte, addr *net.UDPAddr) (int, error) {
	if len(b) > streamMaxFrame {
		return 0, fmt.Errorf("netio: stream frame %d exceeds %d bytes", len(b), streamMaxFrame)
	}
	key := addr.String()
	sc, err := s.connFor(key, addr)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 4+len(b))
	binary.BigEndian.PutUint32(buf, uint32(len(b)))
	copy(buf[4:], b)
	if err := sc.writeFrame(buf); err != nil {
		s.removeConn(key, sc)
		return 0, fmt.Errorf("netio: stream write %v: %w", addr, err)
	}
	return len(b), nil
}

// ReadFrom returns the next received frame and its sender, honoring the
// read deadline. Implements Transport.
func (s *streamTransport) ReadFrom(b []byte) (int, *net.UDPAddr, error) {
	// Drain buffered frames ahead of close/deadline signals.
	select {
	case f := <-s.frames:
		return copy(b, f.payload), f.from, nil
	default:
	}
	s.mu.Lock()
	deadline := s.deadline
	s.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			return 0, nil, streamTimeoutError{}
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case f := <-s.frames:
		return copy(b, f.payload), f.from, nil
	case <-s.done:
		return 0, nil, fmt.Errorf("netio: stream read: %w", net.ErrClosed)
	case <-timeout:
		return 0, nil, streamTimeoutError{}
	}
}

// SetReadDeadline implements Transport.
func (s *streamTransport) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.deadline = t
	s.mu.Unlock()
	return nil
}

// LocalAddr reports the listen address in the session layer's UDP-addr
// shape. Implements Transport.
func (s *streamTransport) LocalAddr() net.Addr { return s.local }

// Close shuts the listener and every connection and unblocks readers.
// Implements Transport.
func (s *streamTransport) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*streamConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.conns = map[string]*streamConn{}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, sc := range conns {
		sc.c.Close()
	}
	close(s.done)
	s.wg.Wait()
	return err
}
