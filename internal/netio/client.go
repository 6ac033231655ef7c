package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"biscatter/internal/retry"
	"biscatter/internal/splitmix"
	"biscatter/internal/telemetry"
)

// Client defaults.
const (
	DefaultDialAttempts   = 10
	DefaultAttemptTimeout = 250 * time.Millisecond
	DefaultMaxAttempts    = 10
)

// backoffFactor grows the client's inter-attempt backoff geometrically,
// from a quarter of the attempt timeout up to retry.Backoff's 16× cap
// (4× the attempt timeout).
const backoffFactor = 1.5

// ClientConfig parameterizes a tag-side session client.
type ClientConfig struct {
	// TagID identifies this tag to the gateway.
	TagID uint8
	// Seed keys the deterministic backoff jitter (the ARQ discipline: a
	// splitmix draw over (seed, tag, attempt), so retry schedules replay
	// exactly per seed).
	Seed int64
	// DialAttempts bounds handshake retries.
	DialAttempts int
	// AttemptTimeout bounds one send-and-wait attempt before backing off
	// and retransmitting.
	AttemptTimeout time.Duration
	// MaxAttempts bounds retransmissions per submitted round.
	MaxAttempts int
	// Metrics receives netio.client.* counters (nil = disabled).
	Metrics *telemetry.Metrics
	// Logf, when set, receives session-event logs.
	Logf func(format string, args ...any)
}

func (c *ClientConfig) applyDefaults() {
	if c.DialAttempts <= 0 {
		c.DialAttempts = DefaultDialAttempts
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
}

// ErrRejected means the gateway refused the handshake (a protocol version
// mismatch, or a tag it does not serve); retrying will not help.
var ErrRejected = errors.New("netio: handshake rejected")

// Client is the tag side of a gateway session: it dials with retry, submits
// uplink bits round by round with the ARQ retransmission discipline
// (capped geometric backoff under deterministic splitmix jitter, context
// deadline propagation), heartbeats inside its receive waits, and — when
// the gateway evicts it — re-handshakes and resumes at the gateway's next
// round instead of crashing the tag. Single-threaded: one goroutine owns
// the Client and its Conn.
type Client struct {
	conn Conn
	cfg  ClientConfig
	gw   *net.UDPAddr

	sid    uint64
	round  uint64
	hb     time.Duration
	lastHB time.Time

	cRetries, cReconnects, cEvicted *telemetry.Counter
}

// Dial opens a session with the gateway at addr over conn (which the
// caller owns and keeps). It retries the handshake DialAttempts times with
// jittered backoff before giving up.
func Dial(conn Conn, addr string, cfg ClientConfig) (*Client, error) {
	cfg.applyDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: resolve gateway %q: %w", addr, err)
	}
	c := &Client{conn: conn, cfg: cfg, gw: ua}
	if m := cfg.Metrics; m != nil {
		c.cRetries = m.Counter("netio.client.retries")
		c.cReconnects = m.Counter("netio.client.reconnects")
		c.cEvicted = m.Counter("netio.client.evicted")
	}
	if err := c.handshake(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// SessionID returns the current session identity.
func (c *Client) SessionID() uint64 { return c.sid }

// Round returns the next round the client will submit.
func (c *Client) Round() uint64 { return c.round }

// handshake performs the hello exchange, adopting the gateway's session
// parameters on success. A nonzero c.sid asks the gateway to resume.
func (c *Client) handshake(ctx context.Context) error {
	for attempt := 0; attempt < c.cfg.DialAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		hello := &Hello{Version: ProtocolVersion, TagID: c.cfg.TagID, SessionID: c.sid}
		if err := c.conn.Send(c.gw, hello); err != nil {
			return err
		}
		deadline := time.Now().Add(c.cfg.AttemptTimeout)
		for {
			wait := time.Until(deadline)
			if wait <= 0 {
				break
			}
			m, _, err := c.conn.Recv(wait)
			if err != nil {
				if errors.Is(err, ErrTimeout) {
					break
				}
				if errors.Is(err, ErrClosed) {
					return err
				}
				continue // malformed datagram: keep waiting
			}
			ack, ok := m.(*HelloAck)
			if !ok {
				continue // stale traffic from a previous session
			}
			if !ack.Code.Accepted() {
				return fmt.Errorf("%w: %v (%s)", ErrRejected, ack.Code, ack.Reason)
			}
			c.sid = ack.SessionID
			if ack.NextRound > c.round {
				c.round = ack.NextRound
			}
			c.hb = time.Duration(ack.HeartbeatMillis) * time.Millisecond
			if c.hb <= 0 {
				c.hb = DefaultHeartbeatInterval
			}
			c.lastHB = time.Now()
			c.logf("client %d: session %d %v (next round %d)", c.cfg.TagID, c.sid, ack.Code, c.round)
			return nil
		}
		c.sleep(ctx, c.backoff(attempt))
	}
	return fmt.Errorf("netio: gateway %v unreachable after %d attempts", c.gw, c.cfg.DialAttempts)
}

// backoff is the jittered geometric delay after a failed attempt, capped
// at 4× the attempt timeout so a lossy tag never sleeps past the gateway's
// liveness deadline (no heartbeats are sent mid-backoff).
func (c *Client) backoff(attempt int) time.Duration {
	u := splitmix.Uniform(c.cfg.Seed, uint64(c.cfg.TagID)<<10, uint64(attempt))
	return retry.Backoff(c.cfg.AttemptTimeout/4, backoffFactor, attempt, u)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// maybeHeartbeat sends a liveness ping once the interval the gateway
// acked has elapsed since the last one.
func (c *Client) maybeHeartbeat(now time.Time) {
	if now.Sub(c.lastHB) < c.hb {
		return
	}
	c.lastHB = now
	if err := c.conn.Send(c.gw, &Heartbeat{SessionID: c.sid}); err != nil {
		c.logf("client %d: heartbeat send: %v", c.cfg.TagID, err)
	}
}

// SubmitRound submits this tag's uplink bits for the client's current
// round and waits for the gateway's result, retransmitting with jittered
// geometric backoff and heartbeating while it waits. ctx bounds the whole
// call. An eviction triggers a transparent re-handshake; if the fleet moved
// on past this round while the client was gone, SubmitRound returns a
// RoundSkipped result instead of an error so callers can advance.
func (c *Client) SubmitRound(ctx context.Context, bits []bool) (*RoundResult, error) {
	round := c.round
	sub := &SubmitRound{}
	sub.SetBits(bits)
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.cRetries.Inc()
		}
		if round < c.round {
			// A reconnect during a previous attempt moved the session past
			// this round: the fleet exchanged without us.
			return &RoundResult{SessionID: c.sid, Round: round, Status: RoundSkipped}, nil
		}
		sub.SessionID, sub.Round = c.sid, round
		if err := c.conn.Send(c.gw, sub); err != nil {
			return nil, err
		}
		rr, err := c.await(ctx, round)
		if err != nil {
			return nil, err
		}
		if rr != nil {
			c.round = round + 1
			return rr, nil
		}
		c.sleep(ctx, c.backoff(attempt))
	}
	return nil, fmt.Errorf("netio: round %d unanswered after %d attempts", round, c.cfg.MaxAttempts)
}

// await waits one AttemptTimeout for the result of round, servicing
// heartbeats and evictions meanwhile. A nil, nil return means the
// attempt timed out and the caller should retransmit.
func (c *Client) await(ctx context.Context, round uint64) (*RoundResult, error) {
	deadline := time.Now().Add(c.cfg.AttemptTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := time.Now()
		c.maybeHeartbeat(now)
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, nil
		}
		if hbDue := c.hb - now.Sub(c.lastHB); hbDue > 0 && hbDue < wait {
			wait = hbDue
		}
		m, _, err := c.conn.Recv(wait)
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				continue
			}
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			continue // malformed datagram (e.g. fault-corrupted): retransmission covers it
		}
		switch msg := m.(type) {
		case *RoundResult:
			if msg.SessionID == c.sid && msg.Round == round {
				return msg, nil
			}
			// A stale round's (duplicated) result: ignore.
		case *Evict:
			if msg.SessionID != c.sid {
				continue
			}
			c.cEvicted.Inc()
			c.logf("client %d: evicted (%s), re-handshaking", c.cfg.TagID, msg.Reason)
			if err := c.reconnect(ctx); err != nil {
				return nil, err
			}
			// Resend promptly under the new session; the round-skew check
			// at the top of the attempt loop handles a moved-on fleet.
			return nil, nil
		case *HelloAck:
			// Duplicate of the handshake ack: ignore.
		default:
			c.logf("client %d: unexpected %v", c.cfg.TagID, m.Type())
		}
	}
}

// reconnect re-handshakes after an eviction, resuming at the gateway's
// current round.
func (c *Client) reconnect(ctx context.Context) error {
	c.cReconnects.Inc()
	c.sid = 0 // the old session is gone; ask for a fresh one
	return c.handshake(ctx)
}

// Close says Goodbye. The caller still owns (and closes) the Conn.
func (c *Client) Close() error {
	return c.conn.Send(c.gw, &Goodbye{SessionID: c.sid})
}
