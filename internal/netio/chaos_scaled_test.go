package netio_test

// Scaled chaos conformance: 16 tag processes over 4 TDMA frame groups, on
// both the UDP and the length-prefixed TCP transport, under the acceptance
// fault profile. Every cycle runs as one recorded ExchangeScheduled round,
// and the captured record must replay byte-identically against the
// in-process oracle — the schedule-aware gateway computes exactly the
// physics the oracle does, regardless of transport.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
)

// scaledConfig builds an nTags-node network TDM'd into capacity-tag frame
// groups by core.LayoutTags. Slots within a group reuse the validated
// 4-pair tone table (tags in different frames never modulate together, so
// the deployment exceeds the single-frame band limit by design).
func scaledConfig(t *testing.T, nTags, capacity int) core.Config {
	t.Helper()
	nodes, sched, err := core.LayoutTags(nTags, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sched == nil {
		t.Fatalf("%d tags at capacity %d built no frame schedule", nTags, capacity)
	}
	return core.Config{Nodes: nodes, Seed: 424, ChirpsPerBit: 16, Schedule: sched}
}

// TestChaosScheduledScaled is the scaled acceptance run: 16 tags over 4
// frame groups complete a multi-round schedule-aware run under the chaos
// fault profile, with byte-identical replay — once per transport.
func TestChaosScheduledScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled chaos run is not -short")
	}
	if raceEnabled {
		t.Skip("barrier timeouts are wall-clock straggler budgets; the race detector's slowdown turns them into false evictions (race coverage lives in TestChaosConformance)")
	}
	for _, transport := range []string{netio.TransportUDP, netio.TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			runScaledChaos(t, transport)
		})
	}
}

func runScaledChaos(t *testing.T, transport string) {
	const (
		nTags    = 16
		capacity = 4
		rounds   = 2
	)
	cfg := scaledConfig(t, nTags, capacity)
	cfg.Workers = 1
	m := telemetry.New()
	s, err := core.Serve(core.Deployment{
		Networks: []core.Config{cfg},
		Payload:  func(round uint64) []byte { return core.RandomPayload(int64(round)+99, 2) },
		Gateway: netio.GatewayConfig{
			Rounds:            rounds,
			HeartbeatInterval: 200 * time.Millisecond,
			SessionTimeout:    60 * time.Second,
			// The barrier must outwait a straggler's handshake retries (its
			// session exists from the first lossy Hello, so MinSessions alone
			// does not hold the round): a partial round here would break the
			// full-fleet conformance this test pins. When all 16 tags submit,
			// the barrier closes immediately — these are straggler budgets, not
			// steady-state latency.
			RoundTimeout: 30 * time.Second,
			FrameTimeout: 10 * time.Second,
			// With 16 lossy endpoints some Goodbye almost always drops; don't
			// wait out SessionTimeout for the eviction before exiting.
			Linger:  5 * time.Second,
			Poll:    5 * time.Millisecond,
			Metrics: m,
		},
		Client: netio.ClientConfig{
			AttemptTimeout: 500 * time.Millisecond,
			MaxAttempts:    40,
			DialAttempts:   40,
			Metrics:        m,
		},
		Service: netio.ServiceFlags{Listen: "127.0.0.1:0", Transport: transport},
		Faults:  chaosProfile(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := s.Recorders[0]

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- s.Gateway.Run(ctx) }()

	errs := make([]error, nTags)
	var wg sync.WaitGroup
	for i := 0; i < nTags; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := uint8(i + 1)
			c, conn, err := s.Dial(tag)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			defer c.Close()
			for r := uint64(0); r < rounds; r++ {
				res, err := c.SubmitRound(ctx, tagBits(tag, r))
				if err != nil {
					errs[i] = fmt.Errorf("tag %d round %d: %w", tag, r, err)
					return
				}
				if res.Status != netio.RoundOK {
					errs[i] = fmt.Errorf("tag %d round %d: status %s", tag, r, res.Status)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	select {
	case err := <-gwDone:
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("gateway did not finish after all tags closed")
	}

	record := rec.Record()
	if len(record.Rounds) != rounds {
		t.Fatalf("recorded %d rounds, want %d", len(record.Rounds), rounds)
	}
	for r, round := range record.Rounds {
		if !round.Input.Scheduled {
			t.Fatalf("round %d was not recorded as a scheduled cycle", r)
		}
		if round.Input.Active != nil {
			t.Fatalf("round %d ran with a partial fleet %v", r, round.Input.Active)
		}
		served := 0
		for _, bits := range round.Input.UplinkBits {
			if bits != nil {
				served++
			}
		}
		if served != nTags {
			t.Fatalf("round %d served %d tags, want %d", r, served, nTags)
		}
	}
	replayBothWays(t, t.TempDir(), record)

	if got := m.Counter("netio.rounds").Value(); got != rounds {
		t.Fatalf("netio.rounds = %d, want %d", got, rounds)
	}
	if got := m.Counter("netio.sessions.accepted").Value(); got != nTags {
		t.Fatalf("netio.sessions.accepted = %d, want %d", got, nTags)
	}
	if m.Counter("netio.fault.dropped").Value() == 0 {
		t.Fatal("fault injector dropped nothing — the chaos run was not chaotic")
	}
}
