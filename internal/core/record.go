package core

import (
	"fmt"
	"slices"

	"biscatter/internal/channel"
	"biscatter/internal/mac"
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

// SetMeta attaches one free-form annotation to the record.
func (r *ExchangeRecorder) SetMeta(key, value string) {
	if r.rec.Meta == nil {
		r.rec.Meta = map[string]string{}
	}
	r.rec.Meta[key] = value
}

// captureInput deep-copies one round's inputs (callers may reuse payload
// and bit buffers between rounds).
func captureInput(payload []byte, uplinkBits map[int][]bool, eo exchangeOptions, scheduled bool) trace.RoundInput {
	in := trace.RoundInput{
		Payload:   append([]byte(nil), payload...),
		MinChirps: eo.minChirps,
		Scheduled: scheduled,
	}
	if eo.active != nil {
		in.Active = append([]int(nil), eo.active...)
	}
	if uplinkBits != nil {
		in.UplinkBits = make(map[int][]bool, len(uplinkBits))
		for i, bits := range uplinkBits {
			in.UplinkBits[i] = append([]bool(nil), bits...)
		}
	}
	return in
}

// outcomesFromNodes digests per-node results for replay comparison.
func outcomesFromNodes(nodes []NodeResult) []trace.NodeOutcome {
	out := make([]trace.NodeOutcome, len(nodes))
	for i, nr := range nodes {
		out[i] = nodeOutcome(nr)
	}
	return out
}

// nodeOutcome digests one node's result, deep-copying its slices.
func nodeOutcome(nr NodeResult) trace.NodeOutcome {
	o := trace.NodeOutcome{
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
	return o
}

// record appends one finished round.
func (r *ExchangeRecorder) record(in trace.RoundInput, seq uint64, nodes []NodeResult, err error) {
	round := trace.RoundRecord{
		Seq:        seq,
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
	in := captureInput(payload, uplinkBits, collectExchangeOptions(opts), false)
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
	in := captureInput(payload, uplinkBits, collectExchangeOptions(opts), true)
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
	// Field names what diverged ("exchange_id", "err", "node 2 uplink_bits").
	Field string
	// Want and Got render the recorded and replayed values.
	Want, Got string
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
			report.add(ri, "exchange_id", round.ExchangeID, gotID)
		}
		in := round.Input
		opt := func(o *exchangeOptions) { o.minChirps, o.active = in.MinChirps, in.Active }
		var nodes []NodeResult
		var rerr error
		if in.Scheduled {
			var res *ScheduledResult
			res, rerr = net.ExchangeScheduled(in.Payload, in.UplinkBits, opt)
			if res != nil {
				nodes = res.Nodes
			}
		} else {
			var res *ExchangeResult
			res, rerr = net.Exchange(in.Payload, in.UplinkBits, opt)
			if res != nil {
				nodes = res.Nodes
			}
		}
		gotErr := ""
		if rerr != nil {
			gotErr = rerr.Error()
		}
		if gotErr != round.Err {
			report.add(ri, "err", quoteOr(round.Err), quoteOr(gotErr))
			continue
		}
		if rerr != nil {
			continue // both failed identically; no outcomes to compare
		}
		got := outcomesFromNodes(nodes)
		if len(got) != len(round.Outcomes) {
			report.add(ri, "node count", fmt.Sprint(len(round.Outcomes)), fmt.Sprint(len(got)))
			continue
		}
		for i := range got {
			compareOutcome(report, ri, i, round.Outcomes[i], got[i])
		}
	}
	return report, nil
}

func (r *ReplayReport) add(round int, field, want, got string) {
	r.Mismatches = append(r.Mismatches, ReplayMismatch{Round: round, Field: field, Want: want, Got: got})
}

func quoteOr(s string) string {
	if s == "" {
		return "<nil>"
	}
	return fmt.Sprintf("%q", s)
}

// compareOutcome pins every field of one node's recorded vs replayed
// digest. Floats compare bit-exact: the pipeline is deterministic, so any
// drift is a real divergence.
func compareOutcome(r *ReplayReport, round, node int, want, got trace.NodeOutcome) {
	pre := fmt.Sprintf("node %d ", node)
	if string(want.DownlinkPayload) != string(got.DownlinkPayload) {
		r.add(round, pre+"downlink_payload", fmt.Sprintf("%x", want.DownlinkPayload), fmt.Sprintf("%x", got.DownlinkPayload))
	}
	if want.DownlinkErr != got.DownlinkErr {
		r.add(round, pre+"downlink_err", quoteOr(want.DownlinkErr), quoteOr(got.DownlinkErr))
	}
	if want.DetectionRange != got.DetectionRange || want.DetectionBin != got.DetectionBin || want.DetectionSNRdB != got.DetectionSNRdB {
		r.add(round, pre+"detection",
			fmt.Sprintf("(%v m, bin %d, %v dB)", want.DetectionRange, want.DetectionBin, want.DetectionSNRdB),
			fmt.Sprintf("(%v m, bin %d, %v dB)", got.DetectionRange, got.DetectionBin, got.DetectionSNRdB))
	}
	if want.DetectionErr != got.DetectionErr {
		r.add(round, pre+"detection_err", quoteOr(want.DetectionErr), quoteOr(got.DetectionErr))
	}
	if !slices.Equal(want.UplinkBits, got.UplinkBits) {
		r.add(round, pre+"uplink_bits", fmt.Sprint(want.UplinkBits), fmt.Sprint(got.UplinkBits))
	}
	if want.UplinkErr != got.UplinkErr {
		r.add(round, pre+"uplink_err", quoteOr(want.UplinkErr), quoteOr(got.UplinkErr))
	}
}
