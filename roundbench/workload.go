package main

import (
	"fmt"

	"biscatter/internal/core"
	"biscatter/internal/mac"
	"biscatter/internal/netio"
)

// workload is one benchmark input set: the network served, how it is served
// (in process, or over a loopback gateway on one transport), and the shape
// of each round's generated inputs. Every workload is a closed loop.
type workload struct {
	name string
	// netSeed seeds the network's noise; the benchmark --seed varies only
	// the payloads and uplink bits the clients submit.
	netSeed      int64
	nodes        []core.NodeConfig
	chirpsPerBit int
	// capacity is the TDMA frame capacity; 0 keeps every node concurrent.
	capacity int
	workers  int
	// payloadBytes is the downlink payload size and bits the uplink bits
	// every tag sends per round.
	payloadBytes, bits int
	// transport is "" for the in-process exchange loop, else the gateway's
	// stream transport.
	transport string
	// fleet serves the network through core.NewGatewayMux with a Handle on
	// a one-engine core.Fleet instead of core.NewGatewayHandler.
	fleet bool
}

// gatewayTones are eval.GatewaySweep's validated tone pairs (by slot).
var gatewayTones = [2][2]float64{{1000, 1400}, {1800, 2200}}

var workloads = []workload{
	{
		// BenchmarkExchange's deployment at workers=2.
		name:    "exchange-w2",
		netSeed: 14,
		nodes: []core.NodeConfig{
			{ID: 1, Range: 1.5}, {ID: 2, Range: 2.6}, {ID: 3, Range: 3.8}, {ID: 4, Range: 5.1},
		},
		chirpsPerBit: 64,
		workers:      2,
		payloadBytes: 13,
		bits:         4,
	},
	{
		// eval.GatewaySweep's 2-tag, one-frame-group cell.
		name:    "round-udp",
		netSeed: 1,
		nodes: []core.NodeConfig{
			{ID: 1, Range: 1.5, ModulationF0: gatewayTones[0][0], ModulationF1: gatewayTones[0][1]},
			{ID: 2, Range: 2.7, ModulationF0: gatewayTones[1][0], ModulationF1: gatewayTones[1][1]},
		},
		chirpsPerBit: 16,
		workers:      1,
		payloadBytes: 4,
		bits:         4,
		transport:    netio.TransportUDP,
	},
	{
		// Two 1-tag frame groups reusing slot 0's tones, ranges as
		// eval.GatewaySweep places groups.
		name:    "round-tcp-sched",
		netSeed: 1,
		nodes: []core.NodeConfig{
			{ID: 1, Range: 1.5, ModulationF0: gatewayTones[0][0], ModulationF1: gatewayTones[0][1]},
			{ID: 2, Range: 1.8, ModulationF0: gatewayTones[0][0], ModulationF1: gatewayTones[0][1]},
		},
		chirpsPerBit: 16,
		capacity:     1,
		workers:      1,
		payloadBytes: 4,
		bits:         4,
		transport:    netio.TransportTCP,
		fleet:        true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// served reports whether the workload runs over a gateway.
func (w workload) served() bool { return w.transport != "" }

// schedule builds the workload's frame schedule (nil when unscheduled).
func (w workload) schedule() (*mac.FrameSchedule, error) {
	if w.capacity == 0 {
		return nil, nil
	}
	return mac.NewFrameSchedule(len(w.nodes), w.capacity)
}

// config is the network configuration; the worker count is passed as an
// option so twins can vary it.
func (w workload) config() (core.Config, error) {
	sched, err := w.schedule()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Nodes:        append([]core.NodeConfig(nil), w.nodes...),
		ChirpsPerBit: w.chirpsPerBit,
		Schedule:     sched,
		Seed:         w.netSeed,
	}, nil
}

// network builds a fresh network of the workload at the given worker count.
func (w workload) network(workers int, opts ...core.Option) (*core.Network, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	return core.NewNetwork(cfg, append([]core.Option{core.WithWorkers(workers)}, opts...)...)
}

// frames is the number of radar frames one round takes.
func (w workload) frames() int {
	if w.capacity == 0 {
		return 1
	}
	return (len(w.nodes) + w.capacity - 1) / w.capacity
}

// activeByFrame marks, for each frame of a round, the nodes that modulate
// in it: every node when sched is nil, else the frame group's members.
func (w workload) activeByFrame(sched *mac.FrameSchedule) [][]bool {
	active := make([][]bool, w.frames())
	for g := range active {
		active[g] = make([]bool, len(w.nodes))
		for i := range w.nodes {
			active[g][i] = sched == nil || sched.GroupOf(i) == g
		}
	}
	return active
}

// aggregateBitRate is the schedule's analytic uplink bound in bit/s
// (mac.FrameSchedule.Throughput); unscheduled networks count as one group
// holding every tag.
func (w workload) aggregateBitRate(period float64) (float64, error) {
	capacity := w.capacity
	if capacity == 0 {
		capacity = len(w.nodes)
	}
	s, err := mac.NewFrameSchedule(len(w.nodes), capacity)
	if err != nil {
		return 0, err
	}
	return s.Throughput(w.chirpsPerBit, period).AggregateBitRate, nil
}

// inputs generates a round's downlink payload and every node's uplink bits
// from the benchmark seed. The gateway's payload source and the clients use
// the same functions, so a round's inputs depend only on (seed, round).
type inputs struct {
	seed         int64
	payloadBytes int
	bits         int
}

func (w workload) inputs(seed int64) inputs {
	return inputs{seed: seed, payloadBytes: w.payloadBytes, bits: w.bits}
}

func (in inputs) payload(round uint64) []byte {
	return core.RandomPayload(int64(mix(in.seed, round, 0xd1)), in.payloadBytes)
}

func (in inputs) uplink(round uint64, node int) []bool {
	h := mix(in.seed, round, uint64(node)+1)
	out := make([]bool, in.bits)
	for i := range out {
		out[i] = h>>uint(i)&1 == 1
	}
	return out
}

// uplinkAll is every node's bits for a round, keyed by node index as
// core.Network.Exchange takes them.
func (in inputs) uplinkAll(round uint64, nodes int) map[int][]bool {
	m := make(map[int][]bool, nodes)
	for i := 0; i < nodes; i++ {
		m[i] = in.uplink(round, i)
	}
	return m
}

// mix is splitmix64 over (seed, a, b).
func mix(seed int64, a, b uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(a+1) + 0xbf58476d1ce4e5b9*(b+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
