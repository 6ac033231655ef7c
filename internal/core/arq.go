package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"biscatter/internal/retry"
	"biscatter/internal/splitmix"
)

// DeliverOptions parameterizes the reliable-delivery ARQ engine. The zero
// value selects the calibrated defaults.
type DeliverOptions struct {
	// MaxAttempts bounds the number of downlink transmissions; default 4.
	MaxAttempts int
	// AckBits is the acknowledgment redundancy: the node repeats its
	// verdict across this many uplink bits and the radar majority-votes
	// them. Must be odd so the vote has no ties; default 3.
	AckBits int
}

// The ARQ backoff schedule: the first retry waits arqFirstBackoff (a
// handful of frame durations), each later one arqBackoffFactor times the
// previous, under retry.Backoff's ±25% jitter and 16× cap (32 ms). The
// jitter is drawn from the network seed, so it is deterministic per
// (seed, node, attempt) and synchronized retransmissions from multiple
// radars decorrelate.
const (
	arqFirstBackoff  = 2 * time.Millisecond
	arqBackoffFactor = 2
)

func (o DeliverOptions) withDefaults() DeliverOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 4
	}
	if o.AckBits == 0 {
		o.AckBits = 3
	}
	return o
}

func (o DeliverOptions) validate() error {
	switch {
	case o.MaxAttempts < 1:
		return fmt.Errorf("core: maxAttempts %d must be positive", o.MaxAttempts)
	case o.AckBits < 1 || o.AckBits%2 == 0:
		return fmt.Errorf("core: ack redundancy %d must be an odd positive bit count", o.AckBits)
	}
	return nil
}

// AttemptReport is the diagnostic record of one ARQ attempt: what the node
// decoded, what the acknowledgment said, and how long the engine backed off
// before the next try. The final attempt is recorded with the same fields
// as every other one, so a failed delivery still tells the whole story.
type AttemptReport struct {
	// Attempt is the 1-based attempt number.
	Attempt int
	// Decoded reports whether the node decoded the payload cleanly.
	Decoded bool
	// DownlinkErr is the node's decode failure, if any.
	DownlinkErr error
	// FECCorrectedBits is how many channel errors the FEC layer repaired
	// in this attempt's downlink — nonzero corrections on a delivered
	// packet mean the link is degrading before it fails.
	FECCorrectedBits int
	// AckReadable reports whether the radar could read the node's
	// acknowledgment at all (detection + demodulation succeeded).
	AckReadable bool
	// AckVotes is the number of positive votes among the AckBits
	// acknowledgment bits (meaningful only when AckReadable).
	AckVotes int
	// Backoff is the delay scheduled after this attempt (zero for the
	// final one — there is nothing to wait for).
	Backoff time.Duration
}

// DeliveryReport summarizes a reliable-downlink delivery attempt sequence.
type DeliveryReport struct {
	// Attempts is the number of downlink transmissions used.
	Attempts int
	// Delivered reports whether the node acknowledged a clean decode.
	Delivered bool
	// AckErrors counts acknowledgment frames the radar failed to read,
	// including one on the final attempt — an exhausted delivery whose
	// last ACK was lost is scored the same as any other lost ACK.
	AckErrors int
	// Exchanges is the total number of frame slots consumed (payload +
	// acknowledgment frames), the airtime denominator for goodput.
	Exchanges int
	// TotalBackoff is the summed backoff the engine scheduled. The engine
	// only records it: simulation time is free, and experiments must stay
	// deterministic and fast.
	TotalBackoff time.Duration
	// AttemptLog records per-attempt diagnostics, one entry per attempt.
	AttemptLog []AttemptReport
}

// DeliverReliableContext implements the on-demand retransmission loop that
// §1 motivates as a key benefit of downlink capability: without write
// access a tag can never request a retransmission, so every lost packet is
// lost forever. Each attempt is two frames — payload downlink, then an
// acknowledgment frame on which the node repeats its verdict across
// opts.AckBits uplink bits for the radar to majority-vote. Failed attempts
// back off exponentially (capped) with deterministic seeded jitter before
// retrying; the delays are recorded in the report, not slept. ctx is checked between frames and propagated into
// every exchange, so cancellation (or a deadline) aborts mid-sequence with
// the report accumulated so far.
func (n *Network) DeliverReliableContext(ctx context.Context, nodeIdx int, payload []byte, opts DeliverOptions) (DeliveryReport, error) {
	if nodeIdx < 0 || nodeIdx >= len(n.nodes) {
		return DeliveryReport{}, fmt.Errorf("core: node index %d out of range", nodeIdx)
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return DeliveryReport{}, err
	}
	var rep DeliveryReport
	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Attempts = attempt
		ar := AttemptReport{Attempt: attempt}

		// Payload frame: downlink only.
		res, err := n.ExchangeContext(ctx, payload, nil)
		if err != nil {
			rep.AttemptLog = append(rep.AttemptLog, ar)
			return rep, err
		}
		rep.Exchanges++
		nr := res.Nodes[nodeIdx]
		ar.Decoded = nr.DownlinkErr == nil && bytes.Equal(nr.DownlinkPayload, payload)
		ar.DownlinkErr = nr.DownlinkErr
		ar.FECCorrectedBits = nr.DownlinkDiag.FECCorrectedBits

		// Acknowledgment frame: the node repeats its verdict across
		// opts.AckBits uplink bits. The ack frame carries a minimal beacon
		// payload so the radar keeps sensing.
		ackBits := make([]bool, opts.AckBits)
		for i := range ackBits {
			ackBits[i] = ar.Decoded
		}
		ackRes, err := n.ExchangeContext(ctx, nil, map[int][]bool{nodeIdx: ackBits})
		if err != nil {
			rep.AttemptLog = append(rep.AttemptLog, ar)
			return rep, err
		}
		rep.Exchanges++
		ack := ackRes.Nodes[nodeIdx]
		ar.AckReadable = ack.DetectionErr == nil && ack.UplinkErr == nil && len(ack.UplinkBits) >= len(ackBits)
		if ar.AckReadable {
			for _, b := range ack.UplinkBits[:len(ackBits)] {
				if b {
					ar.AckVotes++
				}
			}
		} else {
			rep.AckErrors++
		}
		delivered := ar.AckReadable && 2*ar.AckVotes > opts.AckBits

		if !delivered && attempt < opts.MaxAttempts {
			u := splitmix.Uniform(n.cfg.Seed, uint64(nodeIdx), uint64(attempt))
			d := retry.Backoff(arqFirstBackoff, arqBackoffFactor, attempt-1, u)
			ar.Backoff = d
			rep.TotalBackoff += d
		}
		rep.AttemptLog = append(rep.AttemptLog, ar)
		if delivered {
			rep.Delivered = true
			return rep, nil
		}
	}
	return rep, nil
}
