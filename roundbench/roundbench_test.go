package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/trace"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}

	var d dist
	for i := 1; i <= 99; i++ {
		d.add(float64(i))
	}
	if v, ok := d.tail(); ok || v != 99 {
		t.Errorf("99 samples: tail = %g, %v; want the maximum 99 flagged as no p90", v, ok)
	}
	d.add(100)
	if v, ok := d.tail(); !ok || v != 90 {
		t.Errorf("100 samples: tail = %g, %v; want p90 = 90", v, ok)
	}
	if got := d.quantile(50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got, want := d.describe(), "p50 50 p90 90 (n=100)"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
}

func TestRatioBases(t *testing.T) {
	var empty ratio
	if empty.value() != 0 || empty.String() != "0/0" {
		t.Errorf("empty ratio = %g %s", empty.value(), empty)
	}

	w, err := lookupWorkload("round-udp")
	if err != nil {
		t.Fatal(err)
	}
	in := w.inputs(7)
	good := func(round uint64, node int) nodeOut {
		return nodeOut{node: node, payload: in.payload(round), bits: in.uplink(round, node), rangeM: w.nodes[node].Range}
	}
	bad := good(1, 1)
	bad.payload = []byte("x")
	bad.bits = append([]bool(nil), bad.bits...)
	bad.bits[0] = !bad.bits[0]
	bad.rangeM += 1
	subs := []submission{
		{round: 1, ok: true, nodes: []nodeOut{good(1, 0)}},
		{round: 1, ok: true, nodes: []nodeOut{bad}},
		// A failed submission misses everything, whatever it carries.
		{round: 2, ok: false, nodes: []nodeOut{good(2, 0)}},
	}
	q, err := score(w, in, subs)
	if err != nil {
		t.Fatal(err)
	}
	bits := w.bits
	for name, tc := range map[string]struct {
		got  ratio
		want ratio
	}{
		"round":  {q.roundOK, ratio{2, 3}},
		"dl":     {q.dlOK, ratio{1, 3}},
		"ulBits": {q.ulBits, ratio{1*bits + bits - 1, 3 * bits}},
		"range":  {q.rangeOK, ratio{1, 3}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s ratio = %s, want %s", name, tc.got, tc.want)
		}
	}

	// A failed correctness gate fails every submission.
	if r := newReport(subs, nil); r.attempted != 3 || r.failed != 1 || r.correct {
		t.Errorf("report without gate error: %+v", r)
	}
	if r := newReport(subs[:2], context.Canceled); r.failed != 2 || r.correct {
		t.Errorf("report with gate error: %+v", r)
	}
}

// served runs rounds 1..n of a workload and returns its gateway's
// ExchangeRecord.
func served(t *testing.T, w workload, in inputs, tap *wireTap, n uint64) *trace.ExchangeRecord {
	t.Helper()
	s, err := open(w, in, tap)
	if err != nil {
		t.Fatal(err)
	}
	if tap != nil {
		tap.start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var subs []submission
	for idx := uint64(1); idx <= n; idx++ {
		got, err := s.round(ctx, idx)
		if err != nil {
			s.close() //nolint:errcheck // the round error is reported
			t.Fatal(err)
		}
		subs = append(subs, got...)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if err := s.verify(subs); err != nil {
		t.Fatal(err)
	}
	return s.(*gatewayServer).rec.Record()
}

func TestDecoratorsAreTransparent(t *testing.T) {
	const rounds = 4
	for _, name := range []string{"round-udp", "round-tcp-sched"} {
		t.Run(name, func(t *testing.T) {
			w, err := lookupWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			in := w.inputs(3)
			bare := served(t, w, in, nil, rounds)
			tap := newWireTap()
			decorated := served(t, w, in, tap, rounds)
			// Compared as values: the gob encoding of the uplink-bit maps
			// follows map iteration order.
			if !reflect.DeepEqual(bare, decorated) {
				t.Fatalf("decorated run recorded %+v, bare run %+v", decorated.Rounds, bare.Rounds)
			}
			if len(bare.Rounds) != rounds+1 {
				t.Fatalf("recorded %d rounds, want the warm-up and %d timed", len(bare.Rounds), rounds)
			}
			if tap.msgs == 0 || len(tap.handlerIn) != rounds {
				t.Fatalf("tap saw %d messages and %d handler calls, want traffic on %d rounds", tap.msgs, len(tap.handlerIn), rounds)
			}
		})
	}
}

func TestWalkDecodesLikeExchange(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			twin, err := w.network(w.workers)
			if err != nil {
				t.Fatal(err)
			}
			wk, err := newWalker(w)
			if err != nil {
				t.Fatal(err)
			}
			in := w.inputs(5)
			active := w.activeByFrame(twin.Schedule())
			decoded := 0
			for idx := uint64(0); idx < 3; idx++ {
				payload, bits := in.payload(idx), in.uplinkAll(idx, len(w.nodes))
				frames, err := exchangeRound(twin, w.capacity != 0, payload, bits)
				if err != nil {
					t.Fatal(err)
				}
				for g, fr := range frames {
					if _, err := wk.frame(payload, bits, active[g], fr.Nodes); err != nil {
						t.Fatalf("round %d frame %d: %v", idx, g, err)
					}
					for i, nr := range fr.Nodes {
						if active[g][i] && bytes.Equal(nr.DownlinkPayload, payload) {
							decoded++
						}
					}
				}
			}
			if decoded == 0 {
				t.Fatal("no node decoded its downlink: the comparison proved nothing")
			}

			// A twin result that differs from what the walk decodes is caught.
			payload, bits := in.payload(3), in.uplinkAll(3, len(w.nodes))
			frames, err := exchangeRound(twin, w.capacity != 0, payload, bits)
			if err != nil {
				t.Fatal(err)
			}
			nodes := append([]core.NodeResult(nil), frames[0].Nodes...)
			for i := range nodes {
				if active[0][i] {
					nodes[i].DownlinkPayload = []byte("tampered")
					nodes[i].DownlinkErr = nil
				}
			}
			if _, err := wk.frame(payload, bits, active[0], nodes); err == nil || !strings.Contains(err.Error(), "walked downlink") {
				t.Fatalf("tampered twin result: err = %v, want a downlink mismatch", err)
			}
		})
	}
}
