package netio

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGatewayAdmissionReject pins admission by the frame plan: with a
// GroupOf that places only tags 1 and 2, tag 3's handshake is answered
// HelloRejectUnknown naming the tag, and the admission counters split
// admitted vs rejected.
func TestGatewayAdmissionReject(t *testing.T) {
	node, m, stop := testGateway(t, GatewayConfig{
		SessionTimeout: time.Minute,
		GroupOf: func(tagID uint8) int {
			if tagID == 1 || tagID == 2 {
				return 0
			}
			return -1
		},
	}, echoExchange)
	defer stop()
	defer node.Close()

	_, conn1 := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer conn1.Close()
	_, conn2 := dialTag(t, node.Addr(), 2, ClientConfig{})
	defer conn2.Close()

	conn3, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	_, err = Dial(conn3, node.Addr().String(), ClientConfig{
		TagID: 3, AttemptTimeout: 300 * time.Millisecond, DialAttempts: 2})
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "reject-unknown (tag 3 ") {
		t.Fatalf("tag 3 dial: want ErrRejected naming tag 3, got %v", err)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != 2 {
		t.Errorf("netio.sessions.accepted = %d, want 2", got)
	}
	if got := m.Counter("netio.admission.rejected").Value(); got == 0 {
		t.Error("netio.admission.rejected not counted")
	}
	// A replaced session (same tag re-dialing) is not an admission event.
	_, conn1b := dialTag(t, node.Addr(), 1, ClientConfig{})
	defer conn1b.Close()
	if got := m.Counter("netio.sessions.replaced").Value(); got != 1 {
		t.Errorf("netio.sessions.replaced = %d, want 1", got)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != 2 {
		t.Errorf("netio.sessions.accepted = %d after a replace, want 2", got)
	}
}

// TestGatewayEvictReassignResume pins the satellite: a tag evicted between
// attempts whose frame-group assignment changed in the meantime resumes
// with the NEW group while its round cursor survives — the replacement
// session re-derives the assignment and the HelloAck resumes at the
// gateway's current round.
func TestGatewayEvictReassignResume(t *testing.T) {
	var group, lastAssigned atomic.Int64
	node, m, stop := testGateway(t, GatewayConfig{
		MinSessions:    1,
		Rounds:         2,
		RoundTimeout:   100 * time.Millisecond,
		SessionTimeout: time.Minute,
		GroupOf: func(tagID uint8) int {
			g := group.Load()
			lastAssigned.Store(g)
			return int(g)
		},
	}, echoExchange)

	c1, conn1 := dialTag(t, node.Addr(), 9, ClientConfig{})
	if _, err := c1.SubmitRound(context.Background(), []bool{true}); err != nil {
		t.Fatal(err)
	}
	conn1.Close() // tag dies without Goodbye

	// Operator re-plans the schedule while the tag is away.
	group.Store(3)

	c2, conn2 := dialTag(t, node.Addr(), 9, ClientConfig{})
	defer conn2.Close()
	if c2.Round() != 1 {
		t.Fatalf("re-dialed client resumes at round %d, want 1", c2.Round())
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
	if got := m.Counter("netio.rounds").Value(); got != 2 {
		t.Errorf("netio.rounds = %d, want 2", got)
	}
	// The replacement session re-derived its assignment under the new plan.
	if got := lastAssigned.Load(); got != 3 {
		t.Errorf("last frame-group assignment %d, want 3 (re-derived on resume)", got)
	}
}
