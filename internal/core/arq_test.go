package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestDeliverReliableValidation(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 50))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := n.DeliverReliableContext(ctx, 5, []byte{1}, DeliverOptions{MaxAttempts: 3}); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, err := n.DeliverReliableContext(ctx, 0, []byte{1}, DeliverOptions{MaxAttempts: -1}); err == nil {
		t.Error("negative attempts should fail")
	}
}

func TestDeliverReliableFirstTryAtShortRange(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 51))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("config v2"), DeliverOptions{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Fatal("short-range delivery should succeed")
	}
	if rep.Attempts != 1 {
		t.Fatalf("expected first-try delivery, used %d attempts", rep.Attempts)
	}
}

func TestDeliverReliableRetransmitsAtMarginalRange(t *testing.T) {
	// Near the edge of the downlink range single packets fail regularly;
	// the ARQ loop must convert most of those losses into deliveries. This
	// is §1's retransmission argument made concrete.
	delivered, totalAttempts, trials := 0, 0, 5
	for trial := 0; trial < trials; trial++ {
		n, err := NewNetwork(oneNodeConfig(11, 52+int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.DeliverReliableContext(context.Background(), 0, RandomPayload(int64(trial), 10), DeliverOptions{MaxAttempts: 6})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delivered {
			delivered++
			totalAttempts += rep.Attempts
		}
	}
	if delivered < trials-1 {
		t.Fatalf("ARQ delivered only %d/%d at marginal range", delivered, trials)
	}
	if totalAttempts <= delivered {
		t.Fatalf("expected some retransmissions at 11 m (SNR ≈12 dB), got %d attempts for %d deliveries",
			totalAttempts, delivered)
	}
}

func TestDeliverOptionsValidation(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 50))
	if err != nil {
		t.Fatal(err)
	}
	bad := []DeliverOptions{
		{MaxAttempts: -1},
		{AckBits: 2},  // even vote has ties
		{AckBits: -3}, // negative redundancy
	}
	for i, o := range bad {
		if _, err := n.DeliverReliableContext(context.Background(), 0, []byte{1}, o); err == nil {
			t.Errorf("options %d should be rejected: %+v", i, o)
		}
	}
}

// TestDeliverExhaustionWithPersistentAckLoss is the regression test for the
// old hard-coded 3-bit vote and its inconsistent final attempt: a node far
// out of range never produces a readable acknowledgment, so the engine must
// exhaust maxAttempts, count every attempt's lost ACK — including the final
// one — and log every attempt with the same fields.
func TestDeliverExhaustionWithPersistentAckLoss(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(40, 54))
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 3
	rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("void"), DeliverOptions{
		MaxAttempts: attempts,
		AckBits:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("delivery at 40 m should fail")
	}
	if rep.Attempts != attempts {
		t.Fatalf("used %d attempts, want %d", rep.Attempts, attempts)
	}
	if len(rep.AttemptLog) != attempts {
		t.Fatalf("logged %d attempts, want %d", len(rep.AttemptLog), attempts)
	}
	if rep.AckErrors != attempts {
		t.Fatalf("counted %d ACK errors, want one per attempt (%d) — the final attempt must count too",
			rep.AckErrors, attempts)
	}
	if rep.Exchanges != 2*attempts {
		t.Fatalf("consumed %d exchanges, want %d", rep.Exchanges, 2*attempts)
	}
	for i, ar := range rep.AttemptLog {
		if ar.Attempt != i+1 {
			t.Fatalf("log entry %d has attempt number %d", i, ar.Attempt)
		}
		if ar.AckReadable {
			t.Fatalf("attempt %d claims a readable ACK at 40 m", ar.Attempt)
		}
	}
	if last := rep.AttemptLog[attempts-1]; last.Backoff != 0 {
		t.Fatalf("final attempt scheduled a %v backoff with nothing left to wait for", last.Backoff)
	}
	if rep.TotalBackoff == 0 {
		t.Fatal("failed intermediate attempts must schedule backoff")
	}
}

func TestDeliverBackoffDeterministicAndExponential(t *testing.T) {
	run := func() DeliveryReport {
		n, err := NewNetwork(oneNodeConfig(40, 55))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("x"), DeliverOptions{MaxAttempts: 3})
		if err != nil {
			t.Fatal(err)
		}
		if sum := rep.AttemptLog[0].Backoff + rep.AttemptLog[1].Backoff; rep.TotalBackoff != sum {
			t.Fatalf("TotalBackoff %v, attempts scheduled %v", rep.TotalBackoff, sum)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different reports:\n%+v\n%+v", a, b)
	}
	// Exponential growth must dominate the ±25% jitter: attempt 2's backoff
	// doubles attempt 1's nominal, so even worst-case jitter keeps it larger.
	if b1, b2 := a.AttemptLog[0].Backoff, a.AttemptLog[1].Backoff; b2 <= b1 {
		t.Fatalf("backoff did not grow: %v then %v", b1, b2)
	}
}

// TestDeliverBackoffCapped pins the schedule past the cap: retries 5 and 6
// have a nominal 2 ms·2⁴ = 32 ms, the 16× cap, so their jittered delays lie
// in [24 ms, 32 ms] instead of growing on toward minutes.
func TestDeliverBackoffCapped(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(40, 58))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("x"), DeliverOptions{MaxAttempts: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AttemptLog) != 7 {
		t.Fatalf("%d attempts, want 7", len(rep.AttemptLog))
	}
	for i, ar := range rep.AttemptLog[:6] {
		d := ar.Backoff
		nominal := min(2*time.Millisecond<<i, 32*time.Millisecond)
		if d < nominal*3/4 || d > min(nominal*5/4, 32*time.Millisecond) {
			t.Errorf("retry %d backed off %v, outside the band of nominal %v", i+1, d, nominal)
		}
	}
}

func TestDeliverContextCancellation(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 56))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.DeliverReliableContext(ctx, 0, []byte{1}, DeliverOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delivery returned %v", err)
	}
}

func TestDeliverConfigurableAckRedundancy(t *testing.T) {
	n, err := NewNetwork(oneNodeConfig(2.6, 57))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("five votes"), DeliverOptions{
		MaxAttempts: 2,
		AckBits:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Fatal("short-range delivery with 5-bit ACK should succeed")
	}
	last := rep.AttemptLog[len(rep.AttemptLog)-1]
	if !last.AckReadable || last.AckVotes < 3 {
		t.Fatalf("expected a majority of 5 votes, got readable=%v votes=%d", last.AckReadable, last.AckVotes)
	}
}

func TestDeliverReliableGivesUp(t *testing.T) {
	// Far beyond range the loop must exhaust its attempts and report
	// failure rather than spin.
	n, err := NewNetwork(oneNodeConfig(40, 53))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.DeliverReliableContext(context.Background(), 0, []byte("unreachable"), DeliverOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("delivery at 40 m should fail")
	}
	if rep.Attempts != 2 {
		t.Fatalf("should use every attempt, used %d", rep.Attempts)
	}
}
