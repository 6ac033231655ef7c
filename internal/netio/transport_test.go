package netio

import (
	"errors"
	"testing"
	"time"

	"biscatter/internal/telemetry"
)

// TestRecvTimeoutSentinel pins that deadline expiry surfaces as ErrTimeout
// (and not as ErrClosed or a bare net error).
func TestRecvTimeoutSentinel(t *testing.T) {
	n, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	_, _, err = n.Recv(20 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("timeout must not match ErrClosed")
	}
}

// TestRecvClosedSentinel pins that a closed socket surfaces as ErrClosed.
func TestRecvClosedSentinel(t *testing.T) {
	n, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := n.Recv(2 * time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	n.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if errors.Is(err, ErrTimeout) {
			t.Fatal("closure must not match ErrTimeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
}

// TestRecvAfterCloseSentinel pins that a socket closed between receives
// surfaces as ErrClosed too, so a gateway whose socket closes while it is
// busy exits instead of polling a dead socket until its context expires.
func TestRecvAfterCloseSentinel(t *testing.T) {
	n, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, _, err := n.Recv(5 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestRecvMalformedCounted pins that malformed datagrams are
// returned as errors AND counted into netio.recv.malformed.
func TestRecvMalformedCounted(t *testing.T) {
	m := telemetry.New()
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0", WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	raw, err := Marshal(&Goodbye{SessionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // break the CRC
	if _, err := a.tr.WriteTo(raw, b.Addr()); err != nil {
		t.Fatal(err)
	}
	_, from, err := b.Recv(2 * time.Second)
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("want ErrCRC, got %v", err)
	}
	if from == nil {
		t.Fatal("malformed datagram should still report its sender")
	}
	if got := m.Counter("netio.recv.malformed").Value(); got != 1 {
		t.Fatalf("netio.recv.malformed = %d, want 1", got)
	}
}

// TestListenWithNetFaults wires a lossy profile through Listen and checks
// datagrams actually disappear (deterministically).
func TestListenWithNetFaults(t *testing.T) {
	m := telemetry.New()
	lossy, err := Listen("127.0.0.1:0",
		WithMetrics(m),
		WithNetFaults(&NetFaultProfile{Seed: 11, Drop: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	sink, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const n = 40
	for i := 0; i < n; i++ {
		if err := lossy.Send(sink.Addr(), &Goodbye{SessionID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for {
		_, _, err := sink.Recv(100 * time.Millisecond)
		if errors.Is(err, ErrTimeout) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	dropped := int(m.Counter("netio.fault.dropped").Value())
	if dropped == 0 || got != n-dropped {
		t.Fatalf("received %d of %d with %d dropped", got, n, dropped)
	}
}
