package core

import (
	"context"
	"errors"
	"testing"
)

func TestDefaultModeLadderBuilds(t *testing.T) {
	// Every rung of the shipped ladder must produce a buildable network.
	for _, m := range DefaultModeLadder() {
		cfg := oneNodeConfig(2.6, 7)
		n, err := NewNetwork(cfg, WithLinkMode(m))
		if err != nil {
			t.Fatalf("mode %q: %v", m.Name, err)
		}
		if got := n.Config().SymbolBits; got != m.SymbolBits {
			t.Fatalf("mode %q: symbol bits %d, want %d", m.Name, got, m.SymbolBits)
		}
		if n.Packet().FEC != m.FEC {
			t.Fatalf("mode %q: FEC config not applied", m.Name)
		}
	}
}

func TestControllerStaysNominalOnCleanLink(t *testing.T) {
	lc, err := NewLinkController(ControllerConfig{
		Network: oneNodeConfig(2.6, 60),
		Deliver: DeliverOptions{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := lc.Deliver(context.Background(), 0, []byte("steady"))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Delivered {
			t.Fatalf("delivery %d failed on a clean short link", i)
		}
	}
	if lc.Level() != 0 {
		t.Fatalf("controller degraded to level %d on a clean link", lc.Level())
	}
	if lc.NodeState(0) != BreakerClosed {
		t.Fatalf("breaker %v on a clean link", lc.NodeState(0))
	}
}

func TestControllerDegradesAndQuarantines(t *testing.T) {
	// A node far beyond range fails every delivery: the controller must
	// walk down the ladder one rung per failure, then open the node's
	// breaker after 3 failures at the bottom, fail fast for 3 quarantined
	// slots, and spend exactly one probe attempt on the 4th.
	lc, err := NewLinkController(ControllerConfig{
		Network: oneNodeConfig(40, 61),
		Deliver: DeliverOptions{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := []byte("unreachable")
	bottom := len(modeLadder) - 1

	// Failures 1..bottom: degrade one rung each, down to the bottom rung.
	for want := 1; want <= bottom; want++ {
		if rep, err := lc.Deliver(ctx, 0, payload); err != nil || rep.Delivered {
			t.Fatalf("delivery at 40 m: delivered=%v err=%v", rep.Delivered, err)
		}
		if lc.Level() != want {
			t.Fatalf("level %d after failure %d, want %d", lc.Level(), want, want)
		}
	}
	// Failures at the bottom: the breaker opens at the third.
	for i := 1; i <= 3; i++ {
		if lc.NodeState(0) != BreakerClosed {
			t.Fatalf("breaker %v after %d failures at the bottom, want closed", lc.NodeState(0), i-1)
		}
		if _, err := lc.Deliver(ctx, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if lc.NodeState(0) != BreakerOpen {
		t.Fatalf("breaker %v after persistent failure, want open", lc.NodeState(0))
	}
	if lc.Level() != bottom {
		t.Fatalf("level %d with the breaker open, want %d", lc.Level(), bottom)
	}
	// Quarantined slots: fail fast, no airtime.
	for i := 1; i <= 3; i++ {
		rep, err := lc.Deliver(ctx, 0, payload)
		if !errors.Is(err, ErrNodeQuarantined) {
			t.Fatalf("quarantined delivery %d returned %v", i, err)
		}
		if rep.Exchanges != 0 {
			t.Fatalf("quarantined delivery %d consumed %d exchanges", i, rep.Exchanges)
		}
	}
	// Next slot is the half-open probe: one attempt, then reopen.
	rep, err := lc.Deliver(ctx, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("probe used %d attempts, want exactly 1", rep.Attempts)
	}
	if lc.NodeState(0) != BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want reopened", lc.NodeState(0))
	}
}

func TestControllerRecoversAfterCleanStreak(t *testing.T) {
	// Two nodes: one in easy range, one unreachable. A failure to the far
	// node degrades the link; a streak of 8 clean deliveries to the near
	// one must climb back up, and no shorter streak may.
	lc, err := NewLinkController(ControllerConfig{
		Network: Config{
			Nodes: []NodeConfig{{ID: 1, Range: 2.6}, {ID: 2, Range: 40}},
			Seed:  62,
		},
		Deliver: DeliverOptions{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lc.Deliver(ctx, 1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if lc.Level() != 1 {
		t.Fatalf("level %d after far-node failure, want 1", lc.Level())
	}
	for i := 0; i < 8; i++ {
		if lc.Level() != 1 {
			t.Fatalf("level %d after %d clean deliveries, want still 1", lc.Level(), i)
		}
		rep, err := lc.Deliver(ctx, 0, []byte("probe"))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Delivered {
			t.Fatalf("near-node delivery %d failed at level %d", i, lc.Level())
		}
	}
	if lc.Level() != 0 {
		t.Fatalf("level %d after clean streak, want recovered to 0", lc.Level())
	}
}

func TestControllerWorkerInvariance(t *testing.T) {
	// The controller's trajectory — levels, delivery outcomes, attempt
	// counts, breaker states — must be byte-identical at any worker count.
	// The far node's deliveries walk it down the whole ladder, open the
	// breaker, sit out the quarantined slots and end on a probe.
	type step struct {
		Level     int
		Delivered bool
		Attempts  int
		Breaker   BreakerState
	}
	nodes := []int{0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1}
	run := func(workers int) []step {
		lc, err := NewLinkController(ControllerConfig{
			Network: Config{
				Nodes:   []NodeConfig{{ID: 1, Range: 2.6}, {ID: 2, Range: 40}},
				Seed:    63,
				Workers: workers,
			},
			Deliver: DeliverOptions{MaxAttempts: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		for _, node := range nodes {
			rep, err := lc.Deliver(context.Background(), node, []byte("trace"))
			if err != nil && !errors.Is(err, ErrNodeQuarantined) {
				t.Fatal(err)
			}
			steps = append(steps, step{lc.Level(), rep.Delivered, rep.Attempts, lc.NodeState(node)})
		}
		return steps
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("step %d diverged across workers: %+v vs %+v", i, one[i], four[i])
		}
	}
	if last := one[len(one)-1]; last.Level != len(modeLadder)-1 || last.Breaker != BreakerOpen || last.Attempts != 1 {
		t.Fatalf("trajectory ended at %+v, want a failed probe at the bottom rung", last)
	}
}
