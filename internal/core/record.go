package core

import (
	"fmt"

	"biscatter/internal/channel"
	"biscatter/internal/mac"
	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

// ExchangeRecorder captures a network's exchanges into a replayable
// trace.ExchangeRecord: the full resolved configuration once, then every
// round's inputs and outcomes. Attach it to a fresh network — the record's
// determinism contract assumes the exchange sequence starts at 0 — and
// drive exchanges through the recorder's methods instead of the network's.
//
// Like the Network it wraps, a recorder is single-threaded.
type ExchangeRecorder struct {
	net *Network
	rec trace.ExchangeRecord
}

// NewExchangeRecorder wraps n for recording. The network must not have run
// any exchanges yet (its sequence counter must be at 0), so replay — which
// always starts a fresh network — reproduces the same exchange IDs.
func NewExchangeRecorder(n *Network) (*ExchangeRecorder, error) {
	if n.seq != 0 {
		return nil, fmt.Errorf("core: recorder needs a fresh network (seq=%d)", n.seq)
	}
	return &ExchangeRecorder{net: n, rec: trace.ExchangeRecord{Spec: specFromConfig(n.cfg)}}, nil
}

// specFromConfig flattens a resolved (post-defaults) Config into the
// record's spec.
func specFromConfig(cfg Config) trace.ExchangeSpec {
	spec := trace.ExchangeSpec{
		Preset:       cfg.Preset,
		Period:       cfg.Period,
		SymbolBits:   cfg.SymbolBits,
		HeaderChirps: cfg.HeaderChirps,
		SyncChirps:   cfg.SyncChirps,
		FEC:          cfg.FEC,
		ChirpsPerBit: cfg.ChirpsPerBit,
		Clutter:      append([]channel.Reflector(nil), cfg.Clutter...),
		Faults:       cfg.Faults,
		Seed:         cfg.Seed,
		NetworkID:    cfg.NetworkID,
	}
	for _, nc := range cfg.Nodes {
		spec.Nodes = append(spec.Nodes, trace.NodeSpec{
			ID: nc.ID, Range: nc.Range,
			ModulationF0: nc.ModulationF0, ModulationF1: nc.ModulationF1,
		})
	}
	if cfg.Schedule != nil {
		spec.ScheduleCapacity = cfg.Schedule.Capacity()
	}
	return spec
}

// configFromSpec is specFromConfig's inverse: the replay network's Config.
// Recorded specs hold resolved values, so the only default the rebuild must
// suppress is the nil-clutter office fallback (gob decodes an empty clutter
// slice back to nil).
func configFromSpec(spec trace.ExchangeSpec) (Config, error) {
	cfg := Config{
		Preset:       spec.Preset,
		Period:       spec.Period,
		SymbolBits:   spec.SymbolBits,
		HeaderChirps: spec.HeaderChirps,
		SyncChirps:   spec.SyncChirps,
		FEC:          spec.FEC,
		ChirpsPerBit: spec.ChirpsPerBit,
		Clutter:      spec.Clutter,
		Faults:       spec.Faults,
		Seed:         spec.Seed,
		NetworkID:    spec.NetworkID,
	}
	if cfg.Clutter == nil {
		cfg.Clutter = []channel.Reflector{}
	}
	for _, ns := range spec.Nodes {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{
			ID: ns.ID, Range: ns.Range,
			ModulationF0: ns.ModulationF0, ModulationF1: ns.ModulationF1,
		})
	}
	if spec.ScheduleCapacity > 0 {
		sched, err := mac.NewFrameSchedule(len(spec.Nodes), spec.ScheduleCapacity)
		if err != nil {
			return Config{}, fmt.Errorf("core: replay schedule: %w", err)
		}
		cfg.Schedule = sched
	}
	return cfg, nil
}

// Network returns the wrapped network.
func (r *ExchangeRecorder) Network() *Network { return r.net }

// Record returns the accumulated record. The returned pointer aliases the
// recorder's state; Save it (trace.SaveExchange) before recording more.
func (r *ExchangeRecorder) Record() *trace.ExchangeRecord { return &r.rec }

// captureInput deep-copies one round's inputs (callers may reuse payload
// and bit buffers between rounds). Uplink bits go into a slice indexed by
// node; entries no exchange reads (empty, or outside the network) are
// dropped, so inputs that run the same round record the same bytes.
func (r *ExchangeRecorder) captureInput(payload []byte, uplinkBits map[int][]bool, eo exchangeOptions, scheduled bool) trace.RoundInput {
	in := trace.RoundInput{
		Payload:   append([]byte(nil), payload...),
		MinChirps: eo.minChirps,
		Scheduled: scheduled,
	}
	if eo.active != nil {
		in.Active = append([]int(nil), eo.active...)
	}
	nodes := len(r.rec.Spec.Nodes)
	for i, bits := range uplinkBits {
		if i < 0 || i >= nodes || len(bits) == 0 {
			continue
		}
		if in.UplinkBits == nil {
			in.UplinkBits = make([][]bool, nodes)
		}
		in.UplinkBits[i] = append([]bool(nil), bits...)
	}
	return in
}

// outcomesFromNodes digests per-node results, deep-copying their slices.
func outcomesFromNodes(nodes []NodeResult) []netio.Outcome {
	out := make([]netio.Outcome, len(nodes))
	for i, nr := range nodes {
		o := &out[i]
		*o = netio.Outcome{
			DownlinkPayload: append([]byte(nil), nr.DownlinkPayload...),
			DetectionRange:  nr.Detection.Range,
			DetectionBin:    nr.Detection.Bin,
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
	}
	return out
}

// record appends one finished round.
func (r *ExchangeRecorder) record(in trace.RoundInput, seq uint64, nodes []NodeResult, err error) {
	round := trace.RoundRecord{
		ExchangeID: telemetry.NewExchangeID(r.net.cfg.Seed, r.net.cfg.NetworkID, seq).String(),
		Input:      in,
	}
	if err != nil {
		round.Err = err.Error()
	} else {
		round.Outcomes = outcomesFromNodes(nodes)
	}
	r.rec.Rounds = append(r.rec.Rounds, round)
}

// Exchange runs one recorded round on the wrapped network.
func (r *ExchangeRecorder) Exchange(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ExchangeResult, error) {
	in := r.captureInput(payload, uplinkBits, collectExchangeOptions(opts), false)
	seq := r.net.seq
	res, err := r.net.Exchange(payload, uplinkBits, opts...)
	var nodes []NodeResult
	if res != nil {
		nodes = res.Nodes
	}
	r.record(in, seq, nodes, err)
	return res, err
}

// ExchangeScheduled runs one recorded schedule cycle on the wrapped
// network. The cycle consumes one exchange sequence number per frame group;
// the round record carries the first.
func (r *ExchangeRecorder) ExchangeScheduled(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ScheduledResult, error) {
	in := r.captureInput(payload, uplinkBits, collectExchangeOptions(opts), true)
	seq := r.net.seq
	res, err := r.net.ExchangeScheduled(payload, uplinkBits, opts...)
	var nodes []NodeResult
	if res != nil {
		nodes = res.Nodes
	}
	r.record(in, seq, nodes, err)
	return res, err
}

// ReplayMismatch pins one divergence between the record and the replay.
type ReplayMismatch struct {
	// Round indexes into the record's Rounds.
	Round int
	// FieldDiff names what diverged ("exchange_id", "err", "node 2
	// uplink_bits") and renders the recorded and replayed values.
	netio.FieldDiff
}

func (m ReplayMismatch) String() string {
	return fmt.Sprintf("round %d %s: recorded %s, replay %s", m.Round, m.Field, m.Want, m.Got)
}

// ReplayReport is the outcome of replaying a record against a fresh
// network.
type ReplayReport struct {
	// Rounds is how many rounds were replayed.
	Rounds int
	// Mismatches lists every divergence; empty means the replay reproduced
	// the record byte-for-byte.
	Mismatches []ReplayMismatch
}

// OK reports whether the replay reproduced every round exactly.
func (r *ReplayReport) OK() bool { return len(r.Mismatches) == 0 }

// ReplayRecord rebuilds the recorded network from the record's spec, re-runs
// every recorded round, and compares outcomes byte-for-byte — exchange IDs,
// decoded payloads and bits, detection coordinates, error messages. opts are
// extra NewNetwork options for the replay run (attach a tracer, metrics, a
// different worker count — anything outside the determinism contract).
func ReplayRecord(rec *trace.ExchangeRecord, opts ...Option) (*ReplayReport, error) {
	cfg, err := configFromSpec(rec.Spec)
	if err != nil {
		return nil, err
	}
	net, err := NewNetwork(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("core: replay network: %w", err)
	}
	report := &ReplayReport{}
	for ri, round := range rec.Rounds {
		report.Rounds++
		gotID := telemetry.NewExchangeID(net.cfg.Seed, net.cfg.NetworkID, net.seq).String()
		if gotID != round.ExchangeID {
			report.add(ri, "", netio.FieldDiff{Field: "exchange_id", Want: round.ExchangeID, Got: gotID})
		}
		in := round.Input
		opt := func(o *exchangeOptions) { o.minChirps, o.active = in.MinChirps, in.Active }
		bits := make(map[int][]bool, len(in.UplinkBits))
		for i, b := range in.UplinkBits {
			bits[i] = b
		}
		var nodes []NodeResult
		var rerr error
		if in.Scheduled {
			var res *ScheduledResult
			res, rerr = net.ExchangeScheduled(in.Payload, bits, opt)
			if res != nil {
				nodes = res.Nodes
			}
		} else {
			var res *ExchangeResult
			res, rerr = net.Exchange(in.Payload, bits, opt)
			if res != nil {
				nodes = res.Nodes
			}
		}
		// The round-level error compares as an outcome's Err.
		got := netio.Outcome{}
		if rerr != nil {
			got.Err = rerr.Error()
		}
		if d := (netio.Outcome{Err: round.Err}).Diff(got); d != nil {
			report.add(ri, "", d...)
			continue
		}
		if rerr != nil {
			continue // both failed identically; no outcomes to compare
		}
		outs := outcomesFromNodes(nodes)
		if len(outs) != len(round.Outcomes) {
			report.add(ri, "", netio.FieldDiff{Field: "node count", Want: fmt.Sprint(len(round.Outcomes)), Got: fmt.Sprint(len(outs))})
			continue
		}
		for i, o := range outs {
			report.add(ri, fmt.Sprintf("node %d ", i), round.Outcomes[i].Diff(o)...)
		}
	}
	return report, nil
}

// add records one mismatch per differing field, its name prefixed.
func (r *ReplayReport) add(round int, prefix string, diffs ...netio.FieldDiff) {
	for _, d := range diffs {
		d.Field = prefix + d.Field
		r.Mismatches = append(r.Mismatches, ReplayMismatch{Round: round, FieldDiff: d})
	}
}
