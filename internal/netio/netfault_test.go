package netio

import (
	"encoding/binary"
	"hash/fnv"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"biscatter/internal/telemetry"
)

// memTransport is an in-memory Transport capturing everything written.
type memTransport struct {
	mu     sync.Mutex
	sent   [][]byte
	closed bool
}

func (m *memTransport) WriteTo(b []byte, _ *net.UDPAddr) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent = append(m.sent, append([]byte(nil), b...))
	return len(b), nil
}
func (m *memTransport) ReadFrom(b []byte) (int, *net.UDPAddr, error) { select {} }
func (m *memTransport) SetReadDeadline(time.Time) error              { return nil }
func (m *memTransport) LocalAddr() net.Addr                          { return &net.UDPAddr{} }
func (m *memTransport) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memTransport) snapshot() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([][]byte(nil), m.sent...)
}

func sendN(t *testing.T, tr Transport, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		buf, err := Marshal(&Goodbye{SessionID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.WriteTo(buf, &net.UDPAddr{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetFaultDeterministic pins the injector's replay property: the same
// profile produces the same datagram stream, byte for byte.
func TestNetFaultDeterministic(t *testing.T) {
	profile := NetFaultProfile{Seed: 42, Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.1}
	run := func() [][]byte {
		mem := &memTransport{}
		ft := newFaultTransport(mem, profile, nil)
		sendN(t, ft, 200)
		ft.Close()
		return mem.snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d datagrams", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("datagram %d diverged", i)
		}
	}
	if len(a) == 200 {
		t.Fatal("profile injected nothing")
	}
}

// TestNetFaultRatesObserved checks each impairment actually fires at
// roughly its configured probability, and that the telemetry counters see
// every decision.
func TestNetFaultRatesObserved(t *testing.T) {
	m := telemetry.New()
	mem := &memTransport{}
	const n, drop = 2000, 0.10
	ft := newFaultTransport(mem, NetFaultProfile{Seed: 7, Drop: drop, Duplicate: 0.05, Corrupt: 0.05}, m)
	sendN(t, ft, n)
	ft.Close()

	dropped := m.Counter("netio.fault.dropped").Value()
	duplicated := m.Counter("netio.fault.duplicated").Value()
	corrupted := m.Counter("netio.fault.corrupted").Value()
	if dropped < n*drop/2 || dropped > n*drop*2 {
		t.Fatalf("dropped %d of %d, want ≈%v", dropped, n, n*drop)
	}
	if duplicated == 0 || corrupted == 0 {
		t.Fatalf("duplicated=%d corrupted=%d, want both > 0", duplicated, corrupted)
	}
	if got := int64(len(mem.snapshot())); got != n-dropped+duplicated {
		t.Fatalf("transport saw %d datagrams, want %d-%d+%d", got, n, dropped, duplicated)
	}
	// Every corrupted datagram must fail CRC (or magic) on decode. A
	// corrupted datagram that is also duplicated appears (and fails) twice.
	bad := int64(0)
	for _, d := range mem.snapshot() {
		if _, err := Unmarshal(d); err != nil {
			bad++
		}
	}
	if bad < corrupted || bad > corrupted+duplicated {
		t.Fatalf("%d undecodable datagrams, want between %d and %d", bad, corrupted, corrupted+duplicated)
	}
}

// TestNetFaultReorderSwapsAdjacent pins the hold-one reorder semantics: a
// reordered datagram goes out after its successor, and Close flushes a
// datagram held at shutdown.
func TestNetFaultReorderSwapsAdjacent(t *testing.T) {
	mem := &memTransport{}
	ft := newFaultTransport(mem, NetFaultProfile{Seed: 3, Reorder: 0.3}, nil)
	sendN(t, ft, 100)
	ft.Close()
	got := mem.snapshot()
	if len(got) != 100 {
		t.Fatalf("reorder must not lose datagrams: %d of 100", len(got))
	}
	// Decode the session IDs back out and check it is a permutation of
	// 0..99 that is NOT the identity.
	seen := make(map[uint64]bool)
	identity := true
	for i, d := range got {
		m, err := Unmarshal(d)
		if err != nil {
			t.Fatal(err)
		}
		id := m.(*Goodbye).SessionID
		if seen[id] {
			t.Fatalf("datagram %d duplicated", id)
		}
		seen[id] = true
		if id != uint64(i) {
			identity = false
		}
	}
	if identity {
		t.Fatal("profile reordered nothing")
	}
}

// TestNetFaultDisabledPassThrough pins that a zero profile adds no wrapper.
func TestNetFaultDisabledPassThrough(t *testing.T) {
	mem := &memTransport{}
	if tr := newFaultTransport(mem, NetFaultProfile{Seed: 1}, nil); tr != Transport(mem) {
		t.Fatal("zero profile must return the inner transport")
	}
}

// TestNetFaultDelay checks delayed datagrams still arrive.
func TestNetFaultDelay(t *testing.T) {
	mem := &memTransport{}
	ft := newFaultTransport(mem, NetFaultProfile{Seed: 5, Delay: 0.5, MaxDelay: 5 * time.Millisecond}, nil)
	sendN(t, ft, 50)
	deadline := time.Now().Add(2 * time.Second)
	for len(mem.snapshot()) < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(mem.snapshot()); got != 50 {
		t.Fatalf("only %d of 50 datagrams arrived after delay window", got)
	}
	ft.Close()
}

// TestNetFaultKnownAnswers pins the injector's verdicts for the first 64
// datagrams, recorded before its hash moved to internal/splitmix: the chaos
// suite's byte-exact outcomes rest on every one of these draws.
func TestNetFaultKnownAnswers(t *testing.T) {
	p := NetFaultProfile{Seed: 7, Drop: 0.1, Duplicate: 0.2, Reorder: 0.15, Corrupt: 0.2, Delay: 0.25, MaxDelay: 20 * time.Millisecond}
	var drop, dup, reorder, corrupt, delay uint64
	var flips []int
	var delays []time.Duration
	for idx := uint64(0); idx < 64; idx++ {
		f := p.fate(idx, 24)
		for _, v := range []struct {
			on   bool
			mask *uint64
		}{{f.drop, &drop}, {f.dup, &dup}, {f.reorder, &reorder}, {f.flipBit >= 0, &corrupt}, {f.delay, &delay}} {
			if v.on {
				*v.mask |= 1 << idx
			}
		}
		if f.flipBit >= 0 {
			flips = append(flips, f.flipBit)
		}
		if f.delay {
			delays = append(delays, f.delayBy)
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"drop", drop, 0x1800220098802414},
		{"duplicate", dup, 0xc2a2c00200100201},
		{"reorder", reorder, 0x0000004000800040},
		{"corrupt", corrupt, 0x3805881488020024},
		{"delay", delay, 0xaa3d680000080230},
	} {
		if c.got != c.want {
			t.Errorf("%s mask = %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
	wantFlips := []int{0x7a, 0xb4, 0x8c, 0xa5, 0x5c, 0x54, 0x18, 0x72, 0xa2, 0x37, 0x79, 0x74, 0x4a, 0xbf}
	if !reflect.DeepEqual(flips, wantFlips) {
		t.Errorf("corrupted bits %v, want %v", flips, wantFlips)
	}
	wantDelays := []time.Duration{18509590, 286219, 6761773, 19315174, 2218513, 18421816, 12707566, 11329455,
		7203472, 13653545, 3421409, 15600136, 19917303, 13286223, 16445424, 9442830}
	if !reflect.DeepEqual(delays, wantDelays) {
		t.Errorf("delays %v, want %v", delays, wantDelays)
	}

	// The same verdicts applied by WriteTo (delay off, so every send is
	// synchronous): a digest of the exact datagram stream. The input is the
	// stream the digest was recorded on: 64 frames of 28 bytes, each a
	// session id and 8 zero bytes under the Goodbye type.
	mem := &memTransport{}
	ft := newFaultTransport(mem, NetFaultProfile{Seed: 7, Drop: 0.1, Duplicate: 0.2, Reorder: 0.15, Corrupt: 0.2}, nil)
	for i := 0; i < 64; i++ {
		body := make([]byte, 16)
		binary.BigEndian.PutUint64(body, uint64(i))
		buf, err := Marshal(rawMessage{TypeGoodbye, body})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.WriteTo(buf, &net.UDPAddr{}); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	sent := mem.snapshot()
	for _, d := range sent {
		binary.Write(h, binary.LittleEndian, uint32(len(d))) //nolint:errcheck // hash writes cannot fail
		h.Write(d)
	}
	if len(sent) != 64 || h.Sum64() != 0x662786a84a2873e2 {
		t.Errorf("datagram stream: %d datagrams, digest %#016x; want 64, 0x662786a84a2873e2", len(sent), h.Sum64())
	}
}
