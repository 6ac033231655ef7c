package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"biscatter/internal/netio"
)

// muxDeployment is a two-member deployment: network 0 holds tags 1–5 in
// two TDMA frame groups (capacity 4), network 1 holds tags 6–7 in one.
func muxDeployment(t *testing.T, rounds int) Deployment {
	t.Helper()
	var nets []Config
	for ni, tags := range []int{5, 2} {
		capacity := 4
		if ni == 1 {
			capacity = 0
		}
		nodes, sched, err := LayoutTags(tags, capacity, 5*ni)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, Config{Nodes: nodes, Schedule: sched, Seed: 31 + int64(ni), ChirpsPerBit: 16, Workers: 1})
	}
	return Deployment{
		Networks: nets,
		Payload:  servicePayload,
		Gateway: netio.GatewayConfig{
			Rounds:         uint64(rounds),
			RoundTimeout:   10 * time.Second,
			SessionTimeout: time.Minute,
			Poll:           5 * time.Millisecond,
		},
		Client:  netio.ClientConfig{AttemptTimeout: 2 * time.Second, MaxAttempts: 10, DialAttempts: 40},
		Service: netio.ServiceFlags{Listen: "127.0.0.1:0"},
	}
}

// serveRounds runs s's gateway, dials every deployed tag and submits the
// given number of rounds from all of them at once, returning each tag's
// results by round.
func serveRounds(t *testing.T, s *Served, rounds int) map[uint8][]*netio.RoundResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	gwDone := make(chan error, 1)
	go func() { gwDone <- s.Gateway.Run(ctx) }()

	var mu sync.Mutex
	results := make(map[uint8][]*netio.RoundResult)
	var wg sync.WaitGroup
	for tag := range s.Mux.targets {
		wg.Add(1)
		go func(tag uint8) {
			defer wg.Done()
			c, conn, err := s.Dial(tag)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			defer c.Close()
			for r := 0; r < rounds; r++ {
				res, err := c.SubmitRound(ctx, []bool{r%2 == 0, tag%2 == 0, true})
				if err != nil {
					t.Errorf("tag %d round %d: %v", tag, r, err)
					return
				}
				mu.Lock()
				results[tag] = append(results[tag], res)
				mu.Unlock()
			}
		}(tag)
	}
	wg.Wait()
	if err := <-gwDone; err != nil {
		t.Fatalf("gateway: %v", err)
	}
	return results
}

// TestServeMuxMembers serves two member networks through one gateway: the
// mux numbers their frame groups globally, every tag gets its outcome, and
// each member's record replays byte-identically on its own.
func TestServeMuxMembers(t *testing.T) {
	const rounds = 2
	s, err := Serve(muxDeployment(t, rounds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for ni, mn := range s.Mux.nets {
		if id := mn.rec.Network().Config().NetworkID; mn.handle != nil || id != ni {
			t.Fatalf("member %d: fleet handle %v, NetworkID %d; want none and %d", ni, mn.handle != nil, id, ni)
		}
	}
	if got := s.Mux.Groups(); got != 3 {
		t.Fatalf("%d frame groups, want 3", got)
	}
	for tag, want := range map[uint8]int{1: 0, 4: 0, 5: 1, 6: 2, 7: 2, 8: -1} {
		if got := s.Mux.GroupOf(tag); got != want {
			t.Errorf("GroupOf(%d) = %d, want %d", tag, got, want)
		}
	}

	results := serveRounds(t, s, rounds)
	for tag := uint8(1); tag <= 7; tag++ {
		rs := results[tag]
		if len(rs) != rounds {
			t.Fatalf("tag %d got %d results, want %d", tag, len(rs), rounds)
		}
		for _, res := range rs {
			if res.Status != netio.RoundOK || res.Outcome.Err != "" {
				t.Fatalf("tag %d round %d: %s %q, want ok", tag, res.Round, res.Status, res.Outcome.Err)
			}
		}
	}
	for ni, rec := range s.Recorders {
		record := rec.Record()
		if len(record.Rounds) != rounds {
			t.Fatalf("network %d recorded %d rounds, want %d", ni, len(record.Rounds), rounds)
		}
		if scheduled := record.Rounds[0].Input.Scheduled; scheduled != (ni == 0) {
			t.Errorf("network %d recorded scheduled = %v", ni, scheduled)
		}
		rep, err := ReplayRecord(record)
		if err != nil {
			t.Fatalf("network %d replay: %v", ni, err)
		}
		if !rep.OK() {
			t.Fatalf("network %d replay diverged: %v", ni, rep.Mismatches)
		}
	}
}

// TestServeMuxMemberFailure pins ExchangeFunc's isolation across members:
// when one member's exchange fails (its fleet handle is closed), its tags
// get per-tag error outcomes while the other member's tags still get clean
// results.
func TestServeMuxMemberFailure(t *testing.T) {
	d := muxDeployment(t, 1)
	s, err := Serve(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	closed := NewFleet(FleetConfig{Engines: 1})
	h, err := closed.AddNetwork(d.Networks[1])
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	s.Mux.nets[1].handle = h

	results := serveRounds(t, s, 1)
	for tag := uint8(1); tag <= 7; tag++ {
		res := results[tag][0]
		if res.Status != netio.RoundOK {
			t.Fatalf("tag %d: status %s, want ok", tag, res.Status)
		}
		failed := tag >= 6
		if got := res.Outcome.Err != ""; got != failed {
			t.Errorf("tag %d: outcome error %q, want error = %v", tag, res.Outcome.Err, failed)
		}
		if failed && !strings.Contains(res.Outcome.Err, "network 1") {
			t.Errorf("tag %d: outcome error %q does not name network 1", tag, res.Outcome.Err)
		}
	}
	if got := len(s.Recorders[0].Record().Rounds); got != 1 {
		t.Fatalf("healthy member recorded %d rounds, want 1", got)
	}
}

// TestServeAdmitsOnlyDeployedTags pins admission on every gateway Serve
// builds, for one scheduled network and for two members: an undeployed tag
// that dials before the last deployed tag is rejected, naming the tag, and
// takes no deployed tag's place — every deployed tag is admitted and round
// 0 runs with all of them.
func TestServeAdmitsOnlyDeployedTags(t *testing.T) {
	const stray = 9
	for _, tc := range []struct {
		name       string
		tags, caps []int
	}{
		{"one scheduled network", []int{5}, []int{4}},
		{"two members", []int{2, 2}, []int{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nets []Config
			deployed := 0
			for ni, n := range tc.tags {
				nodes, sched, err := LayoutTags(n, tc.caps[ni], deployed)
				if err != nil {
					t.Fatal(err)
				}
				nets = append(nets, Config{Nodes: nodes, Schedule: sched, Seed: 5, ChirpsPerBit: 16, Workers: 1})
				deployed += n
			}
			s, err := Serve(Deployment{
				Networks: nets,
				Payload:  servicePayload,
				Gateway: netio.GatewayConfig{
					Rounds:         1,
					RoundTimeout:   10 * time.Second,
					SessionTimeout: time.Minute,
					Poll:           5 * time.Millisecond,
				},
				Client:  netio.ClientConfig{AttemptTimeout: 2 * time.Second, MaxAttempts: 10, DialAttempts: 20},
				Service: netio.ServiceFlags{Listen: "127.0.0.1:0"},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			gwDone := make(chan error, 1)
			go func() { gwDone <- s.Gateway.Run(ctx) }()

			clients := make([]*netio.Client, deployed)
			for tag := 1; tag <= deployed; tag++ {
				if tag == deployed {
					conn, err := netio.Listen("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					_, err = netio.Dial(conn, s.Conn.Addr().String(), netio.ClientConfig{TagID: stray, AttemptTimeout: time.Second})
					conn.Close()
					if !errors.Is(err, netio.ErrRejected) || !strings.Contains(err.Error(), fmt.Sprintf("tag %d ", stray)) {
						t.Fatalf("undeployed tag %d dial: %v, want ErrRejected naming the tag", stray, err)
					}
				}
				c, conn, err := s.Dial(uint8(tag))
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				clients[tag-1] = c
			}

			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func(tag int, c *netio.Client) {
					defer wg.Done()
					defer c.Close()
					res, err := c.SubmitRound(ctx, []bool{true, tag%2 == 0, true})
					if err != nil {
						t.Errorf("tag %d: %v", tag, err)
						return
					}
					if res.Round != 0 || res.Status != netio.RoundOK || res.Outcome.Err != "" {
						t.Errorf("tag %d: round %d %s %q, want round 0 ok", tag, res.Round, res.Status, res.Outcome.Err)
					}
				}(i+1, c)
			}
			wg.Wait()
			if err := <-gwDone; err != nil {
				t.Fatalf("gateway: %v", err)
			}
		})
	}
}

// TestServeListenError pins a clean failure when the gateway's address is
// taken: Serve returns netio.ErrAddrInUse and releases what it built.
func TestServeListenError(t *testing.T) {
	taken, err := netio.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	d := muxDeployment(t, 1)
	d.Service.Listen = taken.Addr().String()
	if _, err := Serve(d); !errors.Is(err, netio.ErrAddrInUse) {
		t.Fatalf("Serve on a taken address: %v, want ErrAddrInUse", err)
	}
}
