package netio

import (
	"testing"
	"time"
)

// TestRecvSteadyStateAllocs bounds the datagram receive path: one Send plus
// one Recv of a session message must stay within a small constant number of
// allocations (deadline bookkeeping, header decode, the message struct and
// its payload fields). The pin is deliberately generous — it exists to catch
// a per-datagram regression (e.g. an accidental buffer reallocation in the
// hot loop), not to freeze the exact count.
func TestRecvSteadyStateAllocs(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	msg := &Heartbeat{SessionID: 7}
	send := func() {
		if err := a.Send(b.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Recv(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm up both sockets

	allocs := testing.AllocsPerRun(50, send)
	const budget = 32
	if allocs > budget {
		t.Fatalf("send+recv allocates %.1f per datagram, budget %d", allocs, budget)
	}
}
