package netio

import (
	"reflect"
	"testing"
	"time"
)

// TestClientBackoffJitteredAndCapped pins the retransmission schedule of a
// zero-value client config: jittered (two tags never retry in lockstep),
// replayable per seed, and never longer than 4× the attempt timeout, the
// cap that keeps a lossy tag inside the gateway's liveness deadline.
func TestClientBackoffJitteredAndCapped(t *testing.T) {
	const timeout = 100 * time.Millisecond
	schedule := func(tag uint8, seed int64) []time.Duration {
		cfg := ClientConfig{TagID: tag, Seed: seed, AttemptTimeout: timeout}
		cfg.applyDefaults()
		c := &Client{cfg: cfg}
		ds := make([]time.Duration, 40)
		for a := range ds {
			ds[a] = c.backoff(a)
		}
		return ds
	}
	a, b := schedule(1, 9), schedule(2, 9)
	for i := range a {
		// Attempts 0–6 stay below the cap even at +25%; past it, draws
		// above the cap all land on it.
		if i <= 6 && a[i] == b[i] {
			t.Errorf("attempt %d: tags 1 and 2 both back off %v", i, a[i])
		}
		for _, d := range []time.Duration{a[i], b[i]} {
			if d > 4*timeout {
				t.Errorf("attempt %d: backoff %v exceeds 4× the attempt timeout", i, d)
			}
		}
	}
	if again := schedule(1, 9); !reflect.DeepEqual(a, again) {
		t.Fatalf("same seed, different schedule:\n%v\n%v", a, again)
	}
	if other := schedule(1, 10); reflect.DeepEqual(a, other) {
		t.Fatal("a different seed replayed the same schedule")
	}
	// Below the cap the schedule is pinned exactly, so a change to the
	// draw's keying or to the growth shows.
	want := []time.Duration{24523378, 46249617, 66447558, 99239181, 133500236, 232817936, 331631570}
	if !reflect.DeepEqual(a[:len(want)], want) {
		t.Errorf("tag 1 schedule %v, want %v", a[:len(want)], want)
	}
}
