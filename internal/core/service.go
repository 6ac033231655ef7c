package core

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"sync"

	"biscatter/internal/mac"
	"biscatter/internal/netio"
)

// GatewayMember is one network served by a GatewayMux: the ExchangeRecorder
// every round lands in and, optionally, the network's Fleet handle. With a
// Handle the member's rounds run through FleetNetwork.Do, within the fleet's
// width and serialized with the network's other fleet calls; without one
// they run directly on the recorder.
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

// GatewayMux multiplexes one netio.Gateway across member networks: tags
// route to their network by NodeConfig.ID (unique across members), each
// round's submissions are split per network, and every involved network
// runs its own (scheduled, when configured) exchange. Frame groups are
// numbered globally, so GroupOf plugs into netio.GatewayConfig.GroupOf.
// The gateway owns the physics, so each member's record replays
// byte-for-byte via ReplayRecord, scheduled cycles included.
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

// Sessions returns the total tag population across members — the default
// netio.GatewayConfig.MinSessions for a mux-backed gateway.
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
// members (inline when one is involved, one goroutine each when several
// are), and answers each tag with the outcome its member's recorder just
// digested. When a single member is involved and its exchange fails, the
// error is returned round-level (every submitter gets RoundError); with
// several members involved, one member's failure becomes per-tag error
// outcomes so a healthy network's tags still get results.
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

		nodeOuts := make([][]netio.Outcome, len(m.nets))
		errs := make([]error, len(m.nets))
		var wg sync.WaitGroup
		for ni := range m.nets {
			switch {
			case perNet[ni] == nil:
			case involved == 1:
				nodeOuts[ni], errs[ni] = m.runMember(ni, payload, perNet[ni])
			default:
				wg.Add(1)
				go func(ni int) {
					defer wg.Done()
					nodeOuts[ni], errs[ni] = m.runMember(ni, payload, perNet[ni])
				}(ni)
			}
		}
		wg.Wait()

		for tagID, t := range m.targets {
			if _, submitted := perNet[t.net][t.node]; !submitted {
				continue
			}
			switch err := errs[t.net]; {
			case err == nil:
				outcomes[tagID] = nodeOuts[t.net][t.node]
			case involved == 1:
				return nil, err
			default:
				outcomes[tagID] = netio.Outcome{Err: fmt.Sprintf("core: network %d: %v", t.net, err)}
			}
		}
		return outcomes, nil
	}
}

// runMember runs one member's round: the submitted subset of its nodes,
// through the recorder, scheduled when the network has a frame schedule,
// and through the member's fleet handle when it has one. It returns the
// per-node outcomes the recorder appended, so each round is digested once.
func (m *GatewayMux) runMember(ni int, payload []byte, bits map[int][]bool) ([]netio.Outcome, error) {
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
	exec := func(context.Context, *Network) (err error) {
		if mn.sched != nil {
			_, err = mn.rec.ExchangeScheduled(payload, bits, opts...)
		} else {
			_, err = mn.rec.Exchange(payload, bits, opts...)
		}
		return err
	}
	var err error
	if mn.handle != nil {
		err = mn.handle.Do(context.Background(), exec)
	} else {
		err = exec(nil, nil)
	}
	if err != nil {
		return nil, err
	}
	rounds := mn.rec.rec.Rounds
	return rounds[len(rounds)-1].Outcomes, nil
}

// Deployment describes a served deployment for Serve.
type Deployment struct {
	// Networks are the member networks' configs, tag IDs unique across
	// them. With several, member i runs as NetworkID i, so exchange IDs
	// and traces on a shared tracer stay attributable.
	Networks []Config
	// Payload supplies each round's downlink payload.
	Payload func(round uint64) []byte
	// Gateway holds the caller's budgets. Serve sets Schedule (one
	// network) and GroupOf, and MinSessions when it is 0.
	Gateway netio.GatewayConfig
	// Client holds the budgets of the clients Dial opens; Dial sets TagID
	// and Seed (the tag's network seed plus its ID).
	Client netio.ClientConfig
	// Service holds the shared service flags: Transport for every
	// endpoint, Listen for the one Serve opens (default 127.0.0.1:9100),
	// and the positive durations override Gateway's.
	Service netio.ServiceFlags
	// Faults impairs the gateway endpoint Serve opens and, reseeded to
	// seed + 1000·ID, every client endpoint Dial opens (nil: no faults).
	Faults *netio.NetFaultProfile
	// Conn, when set, is the gateway's endpoint and Serve opens none.
	Conn netio.Conn
}

// Served is a deployment served through one netio.Gateway over a
// GatewayMux. Run its Gateway, Dial in-process clients, then Close.
type Served struct {
	Gateway *netio.Gateway
	Mux     *GatewayMux
	// Recorders capture each member's rounds, in Networks order.
	Recorders []*ExchangeRecorder
	// Conn is the gateway's endpoint.
	Conn netio.Conn

	d Deployment
}

// Serve is the one builder of a served deployment: the member networks,
// one recorder each, the mux (always through NewGatewayMux) and the
// gateway with every field the deployment determines. GroupOf places
// exactly the deployed tags, so the gateway admits those and rejects any
// other tag's handshake. The members need no Fleet: the gateway calls the
// mux from its one goroutine, and the mux runs each member at most once
// per round, so no member ever waits for a turn.
func Serve(d Deployment) (_ *Served, err error) {
	g := &d.Gateway
	if d.Service.Heartbeat > 0 {
		g.HeartbeatInterval = d.Service.Heartbeat
	}
	if d.Service.SessionTimeout > 0 {
		g.SessionTimeout = d.Service.SessionTimeout
	}
	if d.Service.FrameTimeout > 0 {
		g.FrameTimeout = d.Service.FrameTimeout
	}
	s := &Served{d: d}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	members := make([]GatewayMember, len(d.Networks))
	for i, cfg := range d.Networks {
		if len(d.Networks) > 1 {
			cfg.NetworkID = i
		}
		var netw *Network
		if netw, err = NewNetwork(cfg); err != nil {
			return nil, err
		}
		if members[i].Recorder, err = NewExchangeRecorder(netw); err != nil {
			return nil, err
		}
		s.Recorders = append(s.Recorders, members[i].Recorder)
	}
	if s.Mux, err = NewGatewayMux(d.Payload, members...); err != nil {
		return nil, err
	}
	if len(members) == 1 {
		g.Schedule = s.Recorders[0].Network().Schedule()
	}
	g.GroupOf = s.Mux.GroupOf
	if g.MinSessions <= 0 {
		g.MinSessions = s.Mux.Sessions()
	}
	if s.Conn = d.Conn; s.Conn == nil {
		node, err := netio.ListenTransport(d.Service.Transport, cmp.Or(d.Service.Listen, "127.0.0.1:9100"),
			netio.WithMetrics(g.Metrics), netio.WithNetFaults(d.Faults))
		if err != nil {
			return nil, err
		}
		s.Conn = node
	}
	s.Gateway = netio.NewGateway(s.Conn, *g, s.Mux.ExchangeFunc())
	return s, nil
}

// Dial opens an in-process client for a deployed tag on a loopback
// endpoint of the deployment's transport, metered into Client.Metrics and
// impaired by the tag's reseeded fault profile. The caller closes both.
func (s *Served) Dial(tagID uint8) (*netio.Client, *netio.Node, error) {
	t, ok := s.Mux.targets[tagID]
	if !ok {
		return nil, nil, fmt.Errorf("core: tag %d is not deployed", tagID)
	}
	faults := s.d.Faults
	if faults != nil {
		p := *faults
		p.Seed += 1000 * int64(tagID)
		faults = &p
	}
	conn, err := netio.ListenTransport(s.d.Service.Transport, "127.0.0.1:0",
		netio.WithMetrics(s.d.Client.Metrics), netio.WithNetFaults(faults))
	if err != nil {
		return nil, nil, err
	}
	cfg := s.d.Client
	cfg.TagID, cfg.Seed = tagID, s.Recorders[t.net].Network().Config().Seed+int64(tagID)
	c, err := netio.Dial(conn, s.Conn.Addr().String(), cfg)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("tag %d: %w", tagID, err)
	}
	return c, conn, nil
}

// Close releases the gateway's endpoint, ending a running gateway.
func (s *Served) Close() {
	if s.Conn != nil {
		s.Conn.Close()
	}
}

// NewGatewayHandler is the ExchangeFunc of a one-network GatewayMux, for
// callers that assemble a gateway by hand; Serve builds the whole path.
func NewGatewayHandler(rec *ExchangeRecorder, payload func(round uint64) []byte) (netio.ExchangeFunc, error) {
	mux, err := NewGatewayMux(payload, GatewayMember{Recorder: rec})
	if err != nil {
		return nil, err
	}
	return mux.ExchangeFunc(), nil
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
