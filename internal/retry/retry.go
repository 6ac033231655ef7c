// Package retry holds the circuit breaker and the capped, jittered
// geometric backoff shared by every retransmitting layer: the physics ARQ
// engine and link controller (internal/core) and the gateway session stack
// (internal/netio). Each caller keeps its own policy — when to probe, what
// to count, what to trip — on top.
package retry

import (
	"fmt"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// Closed: the peer is healthy; requests flow normally.
	Closed BreakerState = iota
	// Open: the peer is quarantined until the caller decides to probe.
	Open
	// HalfOpen: the next request is a probe; success closes the breaker,
	// failure reopens it.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is one peer's circuit breaker: its position and its run of
// consecutive failures. The zero value is closed.
type Breaker struct {
	State BreakerState
	Fails int
}

// Fail records a failure: a closed breaker extends its run and opens when
// the run reaches threshold, a half-open breaker's probe failed so it
// reopens, and an open breaker ignores it. It reports whether a closed
// breaker opened.
func (b *Breaker) Fail(threshold int) (opened bool) {
	switch b.State {
	case HalfOpen:
		b.State = Open
	case Closed:
		b.Fails++
		if b.Fails >= threshold {
			b.State = Open
			return true
		}
	}
	return false
}

// Succeed closes the breaker and resets the run. It reports whether the
// breaker was not already closed.
func (b *Breaker) Succeed() (closed bool) {
	closed = b.State != Closed
	b.State, b.Fails = Closed, 0
	return closed
}

// Probe moves an open breaker to half-open and reports whether it did.
func (b *Breaker) Probe() bool {
	if b.State != Open {
		return false
	}
	b.State = HalfOpen
	return true
}

// jitter spreads every backoff uniformly over [1-jitter, 1+jitter) ×
// nominal, so synchronized retransmissions from many peers decorrelate.
const jitter = 0.25

// Backoff returns the delay before retry i (0 = the first retry): nominal
// first × factor^i grown as an iterative product, placed in the jitter band
// by the caller's uniform draw u ∈ [0, 1), and never above 16 × first. The
// cap keeps a long retry run from sleeping for minutes, past any liveness
// deadline. Once the nominal delay reaches the cap, the draw lands in the
// band [1-jitter, 1) × cap just below it, so capped retries stay spread out
// instead of piling up on the cap itself.
func Backoff(first time.Duration, factor float64, i int, u float64) time.Duration {
	nominal := float64(first)
	limit := 16 * nominal
	for k := 0; k < i && nominal < limit; k++ {
		nominal *= factor
	}
	if nominal >= limit {
		return time.Duration(limit * (1 - jitter*(1-u)))
	}
	return time.Duration(min(nominal*(1-jitter+2*jitter*u), limit))
}
