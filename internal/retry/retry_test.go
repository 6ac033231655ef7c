package retry

import (
	"testing"
	"time"
)

func TestBreakerTransitions(t *testing.T) {
	var b Breaker
	if b.Fail(2) || b.State != Closed || b.Fails != 1 {
		t.Fatalf("one failure below threshold: %+v", b)
	}
	if b.Succeed() || b.Fails != 0 {
		t.Fatalf("success on a closed breaker must reset the run and report no close: %+v", b)
	}
	b.Fail(2)
	if !b.Fail(2) || b.State != Open {
		t.Fatalf("two consecutive failures must open at threshold 2: %+v", b)
	}
	if b.Fail(2) || b.State != Open {
		t.Fatalf("an open breaker ignores failures: %+v", b)
	}
	if !b.Probe() || b.State != HalfOpen {
		t.Fatalf("probe must move open to half-open: %+v", b)
	}
	if b.Probe() {
		t.Fatal("probe on a half-open breaker must report false")
	}
	if b.Fail(2) || b.State != Open {
		t.Fatalf("a failed probe reopens without reporting an open: %+v", b)
	}
	b.Probe()
	if !b.Succeed() || b.State != Closed || b.Fails != 0 {
		t.Fatalf("a successful probe closes and resets: %+v", b)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{Closed: "closed", Open: "open", HalfOpen: "half-open", 7: "BreakerState(7)"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestBackoffGrowsJittersAndCaps(t *testing.T) {
	const first = 2 * time.Millisecond
	// u = 0.5 sits at the band's centre below the cap: the nominal
	// geometric schedule. Past the cap it sits in the middle of the band
	// [0.75, 1) × cap.
	for i, want := range []time.Duration{2000, 4000, 8000, 16000, 28000, 28000, 28000} {
		if got := Backoff(first, 2, i, 0.5); got != want*time.Microsecond {
			t.Errorf("retry %d: %v, want %v", i, got, want*time.Microsecond)
		}
	}
	// The band is [0.75, 1.25) × nominal below the cap.
	if lo, hi := Backoff(first, 2, 1, 0), Backoff(first, 2, 1, 0.999); lo != 3*time.Millisecond || hi <= 4*time.Millisecond || hi >= 5*time.Millisecond {
		t.Errorf("retry 1 band [%v, %v], want [3ms, 5ms)", lo, hi)
	}
	// No draw exceeds 16 × first, and a low draw on a capped nominal still
	// falls below it.
	for i := 0; i < 40; i++ {
		for _, u := range []float64{0, 0.5, 0.999} {
			if d := Backoff(first, 1.5, i, u); d > 16*first {
				t.Fatalf("retry %d u=%v: %v exceeds the 16× cap", i, u, d)
			}
		}
	}
	if d := Backoff(first, 2, 30, 0); d >= 16*first {
		t.Errorf("a low draw past the cap gave %v, want below %v", d, 16*first)
	}
	// Capped draws keep their spread: distinct draws give strictly
	// increasing delays, all below the cap.
	for _, i := range []int{4, 30} {
		prev := time.Duration(0)
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			d := Backoff(first, 2, i, u)
			if d <= prev || d >= 16*first {
				t.Errorf("retry %d u=%v: %v, want above %v and below %v", i, u, d, prev, 16*first)
			}
			prev = d
		}
	}
}
