package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"biscatter/internal/mac"
	"biscatter/internal/netio"
)

// GatewayMember is one network served by a GatewayMux: an ExchangeRecorder
// (the conformance anchor — every round lands in its record for replay)
// and, optionally, the network's Fleet handle. With a Handle set the
// member's rounds run on its fleet engine — serialized with the network's
// other requests under the fleet's reject-or-wait backpressure — and
// different members run concurrently; without one the mux drives the
// recorder inline on the gateway goroutine.
type GatewayMember struct {
	// Recorder wraps the member's network and captures every round.
	Recorder *ExchangeRecorder
	// Handle, when set, must wrap the same network as Recorder.
	Handle *FleetNetwork
}

// muxTarget locates one tag: which member network, which node index.
type muxTarget struct {
	net  int
	node int
}

// muxNet is one member's resolved serving state.
type muxNet struct {
	rec       *ExchangeRecorder
	handle    *FleetNetwork
	sched     *mac.FrameSchedule
	nodes     int
	groupBase int // first global frame-group id owned by this network
	groups    int // frame groups this network contributes
}

// GatewayMux multiplexes one netio.Gateway across N member networks: tags
// are routed to their network by NodeConfig.ID (globally unique across
// members), each round's submissions are partitioned per network, and every
// involved network runs its own (scheduled, when configured) exchange —
// concurrently when Fleet handles are attached. Frame groups are numbered
// globally across members, so GroupOf plugs straight into
// netio.GatewayConfig.GroupOf and the per-group round barrier paces each
// network's cycle independently.
//
// The gateway (not the tags) owns the physics, so a distributed run
// computes the exact pipeline the in-process oracle does — each member's
// captured trace.ExchangeRecord replays byte-for-byte via ReplayRecord,
// scheduled cycles included.
type GatewayMux struct {
	payload func(round uint64) []byte
	nets    []muxNet
	targets map[uint8]muxTarget
	groups  int
}

// NewGatewayMux builds a mux serving the member networks. Tag IDs must be
// unique across every member; each member needs a recorder on a fresh
// network, and a member's Handle (when set) must wrap the recorder's
// network.
func NewGatewayMux(payload func(round uint64) []byte, members ...GatewayMember) (*GatewayMux, error) {
	if payload == nil {
		return nil, fmt.Errorf("core: gateway mux needs a payload source")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: gateway mux needs at least one member network")
	}
	m := &GatewayMux{payload: payload, targets: make(map[uint8]muxTarget)}
	for ni, mem := range members {
		if mem.Recorder == nil {
			return nil, fmt.Errorf("core: gateway mux member %d needs a recorder", ni)
		}
		netw := mem.Recorder.Network()
		if mem.Handle != nil && mem.Handle.Network() != netw {
			return nil, fmt.Errorf("core: gateway mux member %d: handle wraps a different network than its recorder", ni)
		}
		cfg := netw.Config()
		for idx, nc := range cfg.Nodes {
			if prev, dup := m.targets[nc.ID]; dup {
				return nil, fmt.Errorf("core: duplicate tag ID %d (networks %d and %d)", nc.ID, prev.net, ni)
			}
			m.targets[nc.ID] = muxTarget{net: ni, node: idx}
		}
		mn := muxNet{
			rec:       mem.Recorder,
			handle:    mem.Handle,
			sched:     netw.Schedule(),
			nodes:     len(cfg.Nodes),
			groupBase: m.groups,
			groups:    1,
		}
		if mn.sched != nil {
			mn.groups = mn.sched.Frames()
		}
		m.groups += mn.groups
		m.nets = append(m.nets, mn)
	}
	return m, nil
}

// Sessions returns the total tag population across members — the natural
// netio.GatewayConfig.MaxSessions for a mux-backed gateway.
func (m *GatewayMux) Sessions() int { return len(m.targets) }

// Groups returns the number of global frame groups across members.
func (m *GatewayMux) Groups() int { return m.groups }

// GroupOf maps a tag ID onto its global frame group (unique across member
// networks), for netio.GatewayConfig.GroupOf. Unknown tags return -1.
func (m *GatewayMux) GroupOf(tagID uint8) int {
	t, ok := m.targets[tagID]
	if !ok {
		return -1
	}
	mn := m.nets[t.net]
	if mn.sched == nil {
		return mn.groupBase
	}
	g := mn.sched.GroupOf(t.node)
	if g < 0 {
		return -1
	}
	return mn.groupBase + g
}

// ExchangeFunc returns the netio.ExchangeFunc driving the mux: it
// partitions each round's submissions per member network, runs the involved
// members (concurrently when backed by fleet handles), and digests per-node
// results into wire outcomes. When a single member is involved and its
// exchange fails, the error is returned round-level (every submitter gets
// RoundError); with several members involved, one member's failure becomes
// per-tag error outcomes so a healthy network's tags still get results.
func (m *GatewayMux) ExchangeFunc() netio.ExchangeFunc {
	return func(round uint64, uplinkBits map[uint8][]bool) (map[uint8]netio.Outcome, error) {
		outcomes := make(map[uint8]netio.Outcome, len(uplinkBits))
		perNet := make([]map[int][]bool, len(m.nets))
		involved := 0
		for tagID, b := range uplinkBits {
			t, ok := m.targets[tagID]
			if !ok {
				outcomes[tagID] = netio.Outcome{Err: fmt.Sprintf("core: unknown tag %d", tagID)}
				continue
			}
			if perNet[t.net] == nil {
				perNet[t.net] = make(map[int][]bool)
				involved++
			}
			perNet[t.net][t.node] = b
		}
		if involved == 0 {
			return outcomes, nil
		}
		payload := m.payload(round)

		nodeResults := make([][]NodeResult, len(m.nets))
		errs := make([]error, len(m.nets))
		var wg sync.WaitGroup
		for ni := range m.nets {
			if perNet[ni] == nil {
				continue
			}
			if m.nets[ni].handle != nil {
				wg.Add(1)
				go func(ni int) {
					defer wg.Done()
					nodeResults[ni], errs[ni] = m.runMember(ni, payload, perNet[ni])
				}(ni)
			} else {
				nodeResults[ni], errs[ni] = m.runMember(ni, payload, perNet[ni])
			}
		}
		wg.Wait()

		for ni := range m.nets {
			if perNet[ni] == nil {
				continue
			}
			if err := errs[ni]; err != nil {
				if involved == 1 {
					return nil, err
				}
				for tagID, t := range m.targets {
					if t.net != ni {
						continue
					}
					if _, submitted := perNet[ni][t.node]; submitted {
						outcomes[tagID] = netio.Outcome{Err: fmt.Sprintf("core: network %d: %v", ni, err)}
					}
				}
				continue
			}
			for tagID, t := range m.targets {
				if t.net != ni {
					continue
				}
				if _, submitted := perNet[ni][t.node]; submitted {
					outcomes[tagID] = digestOutcome(nodeResults[ni][t.node])
				}
			}
		}
		return outcomes, nil
	}
}

// runMember runs one member's round: the submitted subset of its nodes,
// through the recorder, scheduled when the network has a frame schedule,
// and on the member's fleet engine when it has a handle.
func (m *GatewayMux) runMember(ni int, payload []byte, bits map[int][]bool) ([]NodeResult, error) {
	mn := m.nets[ni]
	active := make([]int, 0, len(bits))
	for idx := range bits {
		active = append(active, idx)
	}
	sort.Ints(active)
	var opts []ExchangeOption
	if len(active) < mn.nodes {
		// A strict subset submitted: restrict the round so the record's
		// active set mirrors the session state (a full house runs the
		// default all-active round, byte-identical to the oracle's). On a
		// scheduled network the subset intersects each frame group and
		// unattended groups are skipped.
		opts = append(opts, WithActiveNodes(active...))
	}
	exec := func() ([]NodeResult, error) {
		if mn.sched != nil {
			res, err := mn.rec.ExchangeScheduled(payload, bits, opts...)
			if err != nil {
				return nil, err
			}
			return res.Nodes, nil
		}
		res, err := mn.rec.Exchange(payload, bits, opts...)
		if err != nil {
			return nil, err
		}
		return res.Nodes, nil
	}
	if mn.handle == nil {
		return exec()
	}
	var nodes []NodeResult
	err := mn.handle.Do(context.Background(), func(context.Context, *Network) error {
		var rerr error
		nodes, rerr = exec()
		return rerr
	})
	if err != nil {
		return nil, err
	}
	return nodes, nil
}

// NewGatewayHandler bridges a netio.Gateway to the core exchange pipeline:
// the returned netio.ExchangeFunc runs each submitted round on the
// recorder's network and digests per-node results into wire outcomes. It is
// the single-network form of GatewayMux — see there for the serving
// semantics, and NewGatewayMux for multiplexing several networks (with
// Fleet backing) behind one gateway.
//
// Tags are mapped to nodes by NodeConfig.ID. payload supplies the round's
// downlink payload (so the record's inputs stay deterministic per round
// index regardless of network timing). When only a subset of tags submits
// a round, the round runs with WithActiveNodes over that subset — the rest
// of the fleet keeps exchanging while quarantined or evicted tags sit out,
// and the record captures the active set so replay reproduces it.
func NewGatewayHandler(rec *ExchangeRecorder, payload func(round uint64) []byte) (netio.ExchangeFunc, error) {
	if rec == nil {
		return nil, fmt.Errorf("core: gateway handler needs a recorder")
	}
	if payload == nil {
		return nil, fmt.Errorf("core: gateway handler needs a payload source")
	}
	mux, err := NewGatewayMux(payload, GatewayMember{Recorder: rec})
	if err != nil {
		return nil, err
	}
	return mux.ExchangeFunc(), nil
}

// digestOutcome converts a NodeResult into its wire digest — the same
// fields (and the same deep copies) as the replay layer's
// outcomesFromNodes.
func digestOutcome(nr NodeResult) netio.Outcome {
	o := netio.Outcome{
		DownlinkPayload: append([]byte(nil), nr.DownlinkPayload...),
		DetectionRange:  nr.Detection.Range,
		DetectionBin:    int32(nr.Detection.Bin),
		DetectionSNRdB:  nr.Detection.SNRdB,
		UplinkBits:      append([]bool(nil), nr.UplinkBits...),
	}
	if nr.DownlinkErr != nil {
		o.DownlinkErr = nr.DownlinkErr.Error()
	}
	if nr.DetectionErr != nil {
		o.DetectionErr = nr.DetectionErr.Error()
	}
	if nr.UplinkErr != nil {
		o.UplinkErr = nr.UplinkErr.Error()
	}
	return o
}

// layoutTones is the validated 4-pair uplink tone table: every pair sits
// below the slow-time band limit, and slots within one TDMA frame reuse it,
// so any fleet size works as long as at most 4 tags modulate per frame.
var layoutTones = [4][2]float64{{1000, 1400}, {1800, 2200}, {2600, 3000}, {3400, 3800}}

// LayoutTags places a served fleet of n tags. Tag i gets ID idBase+i+1, the
// tone pair of its frame slot, and range 1.5 + 1.2·slot + 0.3·group meters.
// frameCapacity bounds the tags per TDMA frame group: 0 fits the tone table,
// more than 4 is an error, and a frame schedule is built (and returned) only
// when n exceeds the capacity. idBase offsets the IDs so several member
// networks stay globally unique behind one gateway; an ID past 255 is an
// error.
func LayoutTags(n, frameCapacity, idBase int) ([]NodeConfig, *mac.FrameSchedule, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("core: -tags must be positive, got %d", n)
	}
	if last := idBase + n; last > 255 {
		return nil, nil, fmt.Errorf("core: tag IDs would run to %d, past the 8-bit limit of 255: lower -tags or -networks", last)
	}
	capacity := frameCapacity
	if capacity <= 0 {
		capacity = min(n, len(layoutTones))
	}
	if capacity > len(layoutTones) {
		return nil, nil, fmt.Errorf("core: -frame-capacity %d exceeds the %d-pair tone table", capacity, len(layoutTones))
	}
	var sched *mac.FrameSchedule
	if n > capacity {
		var err error
		if sched, err = mac.NewFrameSchedule(n, capacity); err != nil {
			return nil, nil, err
		}
	}
	nodes := make([]NodeConfig, n)
	for i := range nodes {
		group, slot := 0, i
		if sched != nil {
			group, slot = sched.Assignment(i)
		}
		nodes[i] = NodeConfig{
			ID:           uint8(idBase + i + 1),
			Range:        1.5 + 1.2*float64(slot) + 0.3*float64(group),
			ModulationF0: layoutTones[slot][0],
			ModulationF1: layoutTones[slot][1],
		}
	}
	return nodes, sched, nil
}
