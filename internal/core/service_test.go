package core

import (
	"bytes"
	"strings"
	"testing"

	"biscatter/internal/trace"
)

func serviceRecorder(t *testing.T) *ExchangeRecorder {
	t.Helper()
	n, err := NewNetwork(Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 2.0, ModulationF0: 1000, ModulationF1: 1600},
			{ID: 2, Range: 3.5, ModulationF0: 2200, ModulationF1: 2800},
		},
		Seed:         99,
		ChirpsPerBit: 16,
	}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewExchangeRecorder(n)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func servicePayload(round uint64) []byte { return RandomPayload(int64(round), 2) }

// TestGatewayHandlerDigestsOutcomes pins that the handler's wire outcomes
// are the same digest the replay layer captures: for a full-fleet round,
// each tag's Outcome equals the recorded one field for field.
func TestGatewayHandlerDigestsOutcomes(t *testing.T) {
	rec := serviceRecorder(t)
	fn, err := NewGatewayHandler(rec, servicePayload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fn(0, map[uint8][]bool{
		1: {true, false, true},
		2: {false, true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(out))
	}
	record := rec.Record()
	if len(record.Rounds) != 1 {
		t.Fatalf("recorded %d rounds, want 1", len(record.Rounds))
	}
	if record.Rounds[0].Input.Active != nil {
		t.Fatalf("full-fleet round recorded active set %v, want nil", record.Rounds[0].Input.Active)
	}
	for idx, tag := range []uint8{1, 2} {
		want := record.Rounds[0].Outcomes[idx]
		if d := want.Diff(out[tag]); d != nil {
			t.Fatalf("tag %d outcome diverged from record: %v\n got %+v\nwant %+v", tag, d, out[tag], want)
		}
	}
}

// TestGatewayHandlerSubsetRestrictsRound pins that a partial submission runs
// the round with WithActiveNodes over exactly the submitting subset, and
// only submitters get outcomes.
func TestGatewayHandlerSubsetRestrictsRound(t *testing.T) {
	rec := serviceRecorder(t)
	fn, err := NewGatewayHandler(rec, servicePayload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fn(0, map[uint8][]bool{2: {true, false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got outcomes for %d tags, want 1", len(out))
	}
	if _, ok := out[2]; !ok {
		t.Fatal("submitting tag 2 got no outcome")
	}
	active := rec.Record().Rounds[0].Input.Active
	if len(active) != 1 || active[0] != 1 {
		t.Fatalf("recorded active set %v, want [1]", active)
	}
}

// TestGatewayHandlerUnknownTag pins that a tag with no node mapping gets an
// error outcome without poisoning the round for mapped tags.
func TestGatewayHandlerUnknownTag(t *testing.T) {
	rec := serviceRecorder(t)
	fn, err := NewGatewayHandler(rec, servicePayload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fn(0, map[uint8][]bool{
		1:  {true, true},
		77: {false, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[77].Err == "" {
		t.Fatal("unknown tag should carry an error outcome")
	}
	if out[1].Err != "" {
		t.Fatalf("mapped tag poisoned by unknown peer: %q", out[1].Err)
	}
	// Only the mapped tag ran.
	active := rec.Record().Rounds[0].Input.Active
	if len(active) != 1 || active[0] != 0 {
		t.Fatalf("recorded active set %v, want [0]", active)
	}
}

// TestGatewayHandlerRejectsBadSetup pins constructor validation.
func TestGatewayHandlerRejectsBadSetup(t *testing.T) {
	if _, err := NewGatewayHandler(nil, servicePayload); err == nil {
		t.Fatal("nil recorder accepted")
	}
	rec := serviceRecorder(t)
	if _, err := NewGatewayHandler(rec, nil); err == nil {
		t.Fatal("nil payload source accepted")
	}
}

// TestLayoutTagsPlacement pins the served-fleet layout: the tone pair of
// each frame slot, range 1.5 + 1.2·slot + 0.3·group, IDs offset by idBase,
// and a frame schedule only past the capacity.
func TestLayoutTagsPlacement(t *testing.T) {
	nodes, sched, err := LayoutTags(3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sched != nil {
		t.Fatal("3 tags fit one frame but got a schedule")
	}
	want := []NodeConfig{
		{ID: 1, Range: 1.5, ModulationF0: 1000, ModulationF1: 1400},
		{ID: 2, Range: 2.7, ModulationF0: 1800, ModulationF1: 2200},
		{ID: 3, Range: 3.9, ModulationF0: 2600, ModulationF1: 3000},
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("node %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}

	nodes, sched, err = LayoutTags(6, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched == nil || sched.Frames() != 2 {
		t.Fatalf("6 tags at capacity 4: schedule %v, want 2 frame groups", sched)
	}
	// Tag index 5 is group 1, slot 1: slot 1's tones, shifted 0.3 m out.
	if got := nodes[5]; got.ID != 16 || got.Range != 1.5+1.2+0.3 || got.ModulationF0 != 1800 || got.ModulationF1 != 2200 {
		t.Fatalf("tag index 5 = %+v, want ID 16 at 3.0 m on the 1800/2200 Hz pair", got)
	}
}

// TestLayoutTagsRejects covers the up-front input errors, above all a tag
// ID past 255, which a uint8 would otherwise wrap into a duplicate.
func TestLayoutTagsRejects(t *testing.T) {
	if _, _, err := LayoutTags(255, 4, 0); err != nil {
		t.Fatalf("IDs 1–255 must fit: %v", err)
	}
	for _, tc := range []struct {
		n, capacity, idBase int
		want                string
	}{
		{0, 0, 0, "-tags"},
		{3, 5, 0, "-frame-capacity"},
		{256, 4, 0, "-tags or -networks"},
		{100, 4, 200, "-tags or -networks"},
	} {
		_, _, err := LayoutTags(tc.n, tc.capacity, tc.idBase)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LayoutTags(%d, %d, %d) = %v, want an error naming %s", tc.n, tc.capacity, tc.idBase, err, tc.want)
		}
	}
}

// TestGatewayMuxRecordsReproducible drives a two-member mux's ExchangeFunc
// in-process twice, each time from fresh networks: member 1's saved
// records must be the same bytes, whatever order its uplink bits came in.
func TestGatewayMuxRecordsReproducible(t *testing.T) {
	run := func() []byte {
		var members []GatewayMember
		for ni := 0; ni < 2; ni++ {
			nodes, _, err := LayoutTags(2, 0, 2*ni)
			if err != nil {
				t.Fatal(err)
			}
			n, err := NewNetwork(Config{Nodes: nodes, Seed: 31 + int64(ni), NetworkID: ni, ChirpsPerBit: 16, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := NewExchangeRecorder(n)
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, GatewayMember{Recorder: rec})
		}
		mux, err := NewGatewayMux(servicePayload, members...)
		if err != nil {
			t.Fatal(err)
		}
		fn := mux.ExchangeFunc()
		for round := uint64(0); round < 2; round++ {
			bits := make(map[uint8][]bool)
			for tag := uint8(1); tag <= 4; tag++ {
				bits[tag] = []bool{round%2 == 0, tag%2 == 0, true}
			}
			if _, err := fn(round, bits); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteExchange(&buf, members[1].Recorder.Record()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if first, second := run(), run(); !bytes.Equal(first, second) {
		t.Fatalf("two recordings of member 1 differ (%d and %d bytes)", len(first), len(second))
	}
}
