package eval

import (
	"testing"

	"biscatter/internal/netio"
)

// TestLoopbackMetersClients pins that one registry meters both sides of a
// lossy run: the client-side counters sit in the run's snapshot beside the
// gateway's, and the reported client retries are read from it.
func TestLoopbackMetersClients(t *testing.T) {
	pt, err := Loopback{
		Tags:    2,
		Seed:    5,
		Workers: 1,
		Rounds:  2,
		Faults:  &netio.NetFaultProfile{Seed: 5, Drop: 0.1, Reorder: 0.05},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	counters := pt.Metrics.Snapshot().Counters
	for _, name := range []string{"netio.client.retries", "netio.client.reconnects", "netio.retries", "netio.rounds"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("snapshot lacks %s", name)
		}
	}
	if pt.ClientRetries != counters["netio.client.retries"] {
		t.Errorf("ClientRetries = %d, snapshot holds %d", pt.ClientRetries, counters["netio.client.retries"])
	}
	if !pt.ReplayOK {
		t.Fatalf("record did not replay byte-identically: %v", pt.Mismatches)
	}
}
