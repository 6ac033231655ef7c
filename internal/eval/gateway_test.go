package eval

import (
	"testing"

	"biscatter/internal/netio"
)

// TestGatewaySweepCells pins the capacity sweep's two shapes: a one-group
// fleet over TCP and a fleet past the tone table that the schedule splits
// into two frame groups over UDP. Every cell is clean, so every tag
// completes every round with its full 4-bit uplink, and the record replays.
func TestGatewaySweepCells(t *testing.T) {
	for _, tc := range []struct {
		tags      int
		transport string
		groups    int
	}{
		{2, netio.TransportTCP, 1},
		{5, netio.TransportUDP, 2},
	} {
		const rounds = 2
		pt, err := GatewaySweep(tc.tags, rounds, tc.transport, Options{Seed: 5}.withDefaults())
		if err != nil {
			t.Fatalf("%d tags over %s: %v", tc.tags, tc.transport, err)
		}
		if pt.Groups != tc.groups {
			t.Fatalf("%d tags over %s: %d frame groups, want %d", tc.tags, tc.transport, pt.Groups, tc.groups)
		}
		if want := tc.tags * rounds; pt.Completed != want {
			t.Fatalf("%d tags over %s: completed %d of %d round-results", tc.tags, tc.transport, pt.Completed, want)
		}
		if pt.UplinkBits != 4*pt.Completed {
			t.Fatalf("%d tags over %s: %d uplink bits over %d results, want 4 each",
				tc.tags, tc.transport, pt.UplinkBits, pt.Completed)
		}
		if !pt.ReplayOK {
			t.Fatalf("%d tags over %s: record did not replay byte-identically", tc.tags, tc.transport)
		}
	}
}
