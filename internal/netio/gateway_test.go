package netio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"biscatter/internal/telemetry"
)

// echoExchange is a fake ExchangeFunc: each tag's outcome echoes its
// submitted bits and stamps the round into the detection bin.
func echoExchange(round uint64, bits map[uint8][]bool) (map[uint8]Outcome, error) {
	out := make(map[uint8]Outcome, len(bits))
	for tagID, b := range bits {
		out[tagID] = Outcome{
			DownlinkPayload: []byte{byte(round), tagID},
			DetectionBin:    int(round),
			UplinkBits:      append([]bool(nil), b...),
		}
	}
	return out, nil
}

// testGateway boots a loopback gateway and returns its node, metrics and a
// cancel+wait function.
func testGateway(t *testing.T, cfg GatewayConfig, fn ExchangeFunc) (*Node, *telemetry.Metrics, func() error) {
	t.Helper()
	m := telemetry.New()
	node, err := Listen("127.0.0.1:0", WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = m
	cfg.Poll = 5 * time.Millisecond
	gw := NewGateway(node, cfg, fn)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	errc := make(chan error, 1)
	go func() { errc <- gw.Run(ctx) }()
	stop := func() error {
		defer node.Close()
		defer cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			cancel()
			return errors.New("gateway did not exit")
		}
	}
	return node, m, stop
}

func dialTag(t *testing.T, gw *net.UDPAddr, tagID uint8, cfg ClientConfig) (*Client, *Node) {
	t.Helper()
	conn, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TagID = tagID
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 500 * time.Millisecond
	}
	c, err := Dial(conn, gw.String(), cfg)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return c, conn
}

// TestGatewayServesRounds drives two clients through three rounds and pins
// outcomes, round completion and the session lifecycle counters.
func TestGatewayServesRounds(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{
		MinSessions: 2, Rounds: 3,
		RoundTimeout: 2 * time.Second, SessionTimeout: 10 * time.Second,
	}, echoExchange)

	var wg sync.WaitGroup
	tagErr := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tagID := uint8(i + 1)
			c, conn := dialTag(t, node.Addr(), tagID, ClientConfig{Seed: int64(i)})
			defer conn.Close()
			for round := uint64(0); round < 3; round++ {
				bits := []bool{round%2 == 0, i == 0, true}
				rr, err := c.SubmitRound(context.Background(), bits)
				if err != nil {
					tagErr[i] = err
					return
				}
				if rr.Status != RoundOK {
					tagErr[i] = fmt.Errorf("round %d: status %v", round, rr.Status)
					return
				}
				want := Outcome{DownlinkPayload: []byte{byte(round), tagID},
					DetectionBin: int(round), UplinkBits: bits}
				if d := want.Diff(rr.Outcome); d != nil {
					tagErr[i] = fmt.Errorf("round %d outcome %+v, want %+v: %v", round, rr.Outcome, want, d)
					return
				}
			}
			tagErr[i] = c.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range tagErr {
		if err != nil {
			t.Fatalf("tag %d: %v", i+1, err)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("gateway: %v", err)
	}
	if got := m.Counter("netio.rounds").Value(); got != 3 {
		t.Errorf("netio.rounds = %d, want 3", got)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != 2 {
		t.Errorf("netio.sessions.accepted = %d, want 2", got)
	}
	if got := m.Counter("netio.goodbye").Value(); got != 2 {
		t.Errorf("netio.goodbye = %d, want 2", got)
	}
	if got := m.Gauge("netio.sessions").Value(); got != 0 {
		t.Errorf("netio.sessions gauge = %v, want 0", got)
	}
}

// TestGatewayVersionReject pins the handshake protocol-version check.
func TestGatewayVersionReject(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{}, echoExchange)
	conn, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(node.Addr(), &Hello{Version: 99, TagID: 1}); err != nil {
		t.Fatal(err)
	}
	m2, _, err := conn.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m2.(*HelloAck); !ok || ack.Code != HelloRejectVersion {
		t.Fatalf("want a %v HelloAck, got %+v", HelloRejectVersion, m2)
	}
	node.Close()
	if err := stop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("gateway exit: %v", err)
	}
	if got := m.Counter("netio.sessions.rejected").Value(); got != 1 {
		t.Errorf("netio.sessions.rejected = %d, want 1", got)
	}
}

// TestGatewayRejectsVersion1Hello pins version drift failing loudly at
// connect time: a Hello in the version-1 layout (the version, tag and
// session fields plus a trailing sequence number) is answered
// HelloRejectVersion, not accepted and not dropped as malformed.
func TestGatewayRejectsVersion1Hello(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{}, echoExchange)
	defer stop()
	defer node.Close()
	conn, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := binary.BigEndian.AppendUint16(nil, 1) // Version
	body = append(body, 1)                        // TagID
	body = binary.BigEndian.AppendUint64(body, 0) // SessionID
	body = binary.BigEndian.AppendUint64(body, 1) // Seq
	if err := conn.Send(node.Addr(), rawMessage{TypeHello, body}); err != nil {
		t.Fatal(err)
	}
	m2, _, err := conn.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m2.(*HelloAck); !ok || ack.Code != HelloRejectVersion {
		t.Fatalf("want a %v HelloAck, got %+v", HelloRejectVersion, m2)
	}
	if got := m.Counter("netio.sessions.rejected").Value(); got != 1 {
		t.Errorf("netio.sessions.rejected = %d, want 1", got)
	}
}

// TestGatewayHeartbeatKeepsSessionAlive pins liveness: a client that only
// heartbeats (never submits) survives past SessionTimeout.
func TestGatewayHeartbeatKeepsSessionAlive(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{
		SessionTimeout:    400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	}, echoExchange)
	defer stop()
	defer node.Close()

	c, conn := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer conn.Close()
	// Idle for 2× the session timeout, heartbeating the whole way (await
	// with no submission in flight: drive heartbeats manually).
	deadline := time.Now().Add(800 * time.Millisecond)
	for time.Now().Before(deadline) {
		c.maybeHeartbeat(time.Now())
		time.Sleep(25 * time.Millisecond)
	}
	if got := m.Counter("netio.evicted").Value(); got != 0 {
		t.Fatalf("heartbeating session evicted (%d)", got)
	}
	if got := m.Gauge("netio.sessions").Value(); got != 1 {
		t.Fatalf("netio.sessions gauge = %v, want 1", got)
	}
}

// TestGatewayHeartbeatGetsNoReply pins the heartbeat as a one-way liveness
// ping: the gateway answers a live session's heartbeats with nothing.
func TestGatewayHeartbeatGetsNoReply(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{}, echoExchange)
	defer stop()
	defer node.Close()

	c, conn := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer conn.Close()
	if err := conn.Send(node.Addr(), &Heartbeat{SessionID: c.SessionID()}); err != nil {
		t.Fatal(err)
	}
	if m2, _, err := conn.Recv(300 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("gateway answered a heartbeat: %+v (err %v)", m2, err)
	}
	if got := m.Gauge("netio.sessions").Value(); got != 1 {
		t.Fatalf("netio.sessions gauge = %v, want 1", got)
	}
}

// TestGatewayEvictsSilentSession pins deadline-based eviction and its
// observability (counter + flight recorder).
func TestGatewayEvictsSilentSession(t *testing.T) {
	flight := telemetry.NewTracer(8)
	node, m, stop := testGateway(t, GatewayConfig{
		SessionTimeout: 200 * time.Millisecond,
		Tracer:         flight,
	}, echoExchange)
	defer stop()
	defer node.Close()

	_, conn := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer conn.Close()
	// Go silent; the gateway must evict.
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter("netio.evicted").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.Counter("netio.evicted").Value(); got != 1 {
		t.Fatalf("netio.evicted = %d, want 1", got)
	}
	if flight.Trips() == 0 {
		t.Fatal("eviction did not trip the flight recorder")
	}
	if got := m.Gauge("netio.sessions").Value(); got != 0 {
		t.Fatalf("netio.sessions gauge = %v, want 0", got)
	}
	// The evicted client's next submission is told to re-handshake.
	m2, _, err := conn.Recv(time.Second)
	for err == nil {
		if _, ok := m2.(*Evict); ok {
			break
		}
		m2, _, err = conn.Recv(time.Second)
	}
	if err != nil {
		t.Fatalf("no Evict notification: %v", err)
	}
}

// TestGatewayBreakerQuarantine pins the per-session circuit breaker: a tag
// that stops submitting is struck out of the barrier so the rest of the
// fleet keeps exchanging, and its comeback submission is the half-open
// probe that closes the breaker.
func TestGatewayBreakerQuarantine(t *testing.T) {
	flight := telemetry.NewTracer(8)
	node, m, stop := testGateway(t, GatewayConfig{
		MinSessions: 2, Rounds: 4,
		RoundTimeout:     150 * time.Millisecond,
		BreakerThreshold: 1,
		SessionTimeout:   time.Minute, // eviction out of the picture
		Tracer:           flight,
	}, echoExchange)

	slow, slowConn := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer slowConn.Close()
	fast, fastConn := dialTag(t, node.Addr(), 2, ClientConfig{})
	defer fastConn.Close()

	ctx := context.Background()
	// Round 0: both submit.
	if _, err := submitBoth(ctx, slow, fast); err != nil {
		t.Fatal(err)
	}
	// Rounds 1–2: only the fast tag submits; each runs after RoundTimeout.
	// The first miss opens the slow tag's breaker (threshold 1); round 2
	// must then run immediately off the fast tag's submission alone.
	r1start := time.Now()
	for round := 2; round <= 3; round++ {
		rr, err := fast.SubmitRound(ctx, []bool{true})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rr.Status != RoundOK {
			t.Fatalf("round %d: status %v", round, rr.Status)
		}
	}
	quarantined := time.Since(r1start)
	if m.Counter("netio.breaker.open").Value() != 1 {
		t.Fatalf("netio.breaker.open = %d, want 1", m.Counter("netio.breaker.open").Value())
	}
	if flight.Trips() == 0 {
		t.Fatal("breaker opening did not trip the flight recorder")
	}
	// Round 3: the slow tag comes back — its stale rounds answer from
	// cache/skip markers until it reaches the current round, where its
	// submission is the half-open probe.
	for slow.Round() < 3 {
		rr, err := slow.SubmitRound(ctx, []bool{false})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Status != RoundSkipped {
			t.Fatalf("stale round %d: status %v, want skipped", rr.Round, rr.Status)
		}
	}
	if _, err := submitBoth(ctx, slow, fast); err != nil {
		t.Fatal(err)
	}
	if m.Counter("netio.breaker.close").Value() != 1 {
		t.Fatalf("netio.breaker.close = %d, want 1", m.Counter("netio.breaker.close").Value())
	}
	slow.Close()
	fast.Close()
	if err := stop(); err != nil {
		t.Fatalf("gateway: %v", err)
	}
	// The quarantined rounds must not each have waited the full barrier
	// timeout twice over (the breaker removed the slow tag from the
	// barrier). Generous bound: 2 rounds under 4 timeouts.
	if quarantined > 600*time.Millisecond {
		t.Errorf("quarantined rounds took %v — breaker did not shorten the barrier", quarantined)
	}
}

// TestGatewayBreakerCountsConsecutiveMisses pins BreakerThreshold's
// "consecutive": at the default threshold of 2, an isolated miss after a
// served round leaves the breaker closed, and two back-to-back misses open
// it.
func TestGatewayBreakerCountsConsecutiveMisses(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{
		MinSessions: 2, Rounds: 5,
		RoundTimeout:   100 * time.Millisecond,
		SessionTimeout: time.Minute, // eviction out of the picture
	}, echoExchange)

	slow, slowConn := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer slowConn.Close()
	fast, fastConn := dialTag(t, node.Addr(), 2, ClientConfig{})
	defer fastConn.Close()

	ctx := context.Background()
	fastOnly := func(round int) {
		t.Helper()
		rr, err := fast.SubmitRound(ctx, []bool{true})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rr.Status != RoundOK {
			t.Fatalf("round %d: status %v", round, rr.Status)
		}
	}
	opened := func() int64 { return m.Counter("netio.breaker.open").Value() }

	fastOnly(0) // the slow tag's first miss
	for slow.Round() < 1 {
		if _, err := slow.SubmitRound(ctx, []bool{false}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submitBoth(ctx, slow, fast); err != nil { // round 1: served
		t.Fatal(err)
	}
	fastOnly(2) // an isolated miss: the run restarted at round 1
	if got := opened(); got != 0 {
		t.Fatalf("breaker opened on non-consecutive misses (netio.breaker.open = %d)", got)
	}
	fastOnly(3) // the second miss in a row opens the breaker
	if got := opened(); got != 1 {
		t.Fatalf("netio.breaker.open = %d after two consecutive misses, want 1", got)
	}
	fastOnly(4)
	slow.Close()
	fast.Close()
	if err := stop(); err != nil {
		t.Fatalf("gateway: %v", err)
	}
}

// submitBoth submits one round from both clients, a first (a quarantined
// tag's probe must land before the barrier stops waiting for it; the
// barrier then holds the round for b, which is a Closed-breaker session).
func submitBoth(ctx context.Context, a, b *Client) ([2]*RoundResult, error) {
	var out [2]*RoundResult
	var errA error
	done := make(chan struct{})
	go func() {
		defer close(done)
		out[0], errA = a.SubmitRound(ctx, []bool{true})
	}()
	time.Sleep(50 * time.Millisecond)
	rr, err := b.SubmitRound(ctx, []bool{false})
	<-done
	if errA != nil {
		return out, errA
	}
	if err != nil {
		return out, err
	}
	out[1] = rr
	if out[0].Status != RoundOK || out[1].Status != RoundOK {
		return out, fmt.Errorf("statuses %v/%v, want ok/ok", out[0].Status, out[1].Status)
	}
	return out, nil
}

// TestGatewaySessionResume pins resumable session state: a client killed
// without Goodbye re-dials with the same tag ID and picks up at the
// gateway's current round.
func TestGatewaySessionResume(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{
		MinSessions: 1, Rounds: 2,
		RoundTimeout:   100 * time.Millisecond,
		SessionTimeout: time.Minute,
	}, echoExchange)

	c1, conn1 := dialTag(t, node.Addr(), 7, ClientConfig{})
	if _, err := c1.SubmitRound(context.Background(), []bool{true}); err != nil {
		t.Fatal(err)
	}
	conn1.Close() // kill the tag process: no Goodbye

	c2, conn2 := dialTag(t, node.Addr(), 7, ClientConfig{})
	defer conn2.Close()
	if c2.Round() != 1 {
		t.Fatalf("resumed client starts at round %d, want 1", c2.Round())
	}
	rr, err := c2.SubmitRound(context.Background(), []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status != RoundOK || rr.Round != 1 {
		t.Fatalf("resumed round: %+v", rr)
	}
	c2.Close()
	if err := stop(); err != nil {
		t.Fatalf("gateway: %v", err)
	}
	if got := m.Counter("netio.sessions.replaced").Value(); got != 1 {
		t.Errorf("netio.sessions.replaced = %d, want 1", got)
	}
}
