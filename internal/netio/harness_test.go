package netio

import (
	"context"
	"errors"
	"time"
)

// Test-harness methods: the chaos tests idle tags between rounds, which no
// program does.

// Wait keeps the session alive while the tag has nothing to submit: it
// heartbeats at the session interval until d elapses (or ctx is done),
// servicing evictions meanwhile, so an idling test tag's session outlives
// the gateway's liveness deadline.
func (c *Client) Wait(ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		c.maybeHeartbeat(now)
		wait := time.Until(deadline)
		if hbDue := c.hb - now.Sub(c.lastHB); hbDue > 0 && hbDue < wait {
			wait = hbDue
		}
		m, _, err := c.conn.Recv(wait)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			continue
		}
		if msg, ok := m.(*Evict); ok && msg.SessionID == c.sid {
			c.cEvicted.Inc()
			c.logf("client %d: evicted while idle (%s), re-handshaking", c.cfg.TagID, msg.Reason)
			if err := c.reconnect(ctx); err != nil {
				return err
			}
		}
	}
}
