package core

import (
	"context"
	"fmt"

	"biscatter/internal/channel"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
)

// NodeResult is the outcome of one exchange for one node.
type NodeResult struct {
	// DownlinkPayload is what the node decoded from the radar's packet
	// (nil when DownlinkErr is set).
	DownlinkPayload []byte
	// DownlinkErr reports a downlink decoding failure.
	DownlinkErr error
	// DownlinkDiag carries the tag decoder's pipeline diagnostics.
	DownlinkDiag tag.Diagnostics
	// Detection is the radar's localization of this node.
	Detection radar.Detection
	// DetectionErr reports a failed tag search.
	DetectionErr error
	// UplinkBits is what the radar decoded from this node's backscatter.
	UplinkBits []bool
	// UplinkErr reports an uplink demodulation failure.
	UplinkErr error
	// UplinkDiag carries the radar-side detection quality for this node —
	// the uplink mirror of DownlinkDiag. It is populated whether or not the
	// detection succeeded (on failure it describes the best candidate bin),
	// so experiments can see how far below threshold a miss was.
	UplinkDiag radar.DetectionDiag
}

// ExchangeResult is the outcome of one full ISAC round.
type ExchangeResult struct {
	// Frame is the transmitted CSSK frame.
	Frame *fmcw.Frame
	// Nodes holds one result per network node, in network order.
	Nodes []NodeResult
}

// BuildDownlinkFrame encodes a payload into a CSSK frame, padding with
// header-slope chirps so the frame spans at least minChirps (uplink bit
// windows may need more chirps than the packet itself).
func (n *Network) BuildDownlinkFrame(payload []byte, minChirps int) (*fmcw.Frame, error) {
	syms, err := n.pkt.Encode(payload)
	if err != nil {
		return nil, err
	}
	durs := make([]float64, 0, len(syms))
	for _, s := range syms {
		durs = append(durs, s.Duration)
	}
	for len(durs) < minChirps {
		durs = append(durs, n.alphabet.Header().Duration)
	}
	return n.builder.Build(durs)
}

// BuildSensingFrame builds a fixed-slope frame (sensing-only mode).
func (n *Network) BuildSensingFrame(chirps int) (*fmcw.Frame, error) {
	return n.builder.BuildUniform(chirps, n.cfg.Preset.Chirp.Duration)
}

// setActive fills the round's active-node scratch: nil selects every node,
// otherwise only the listed indices modulate (out-of-range entries are
// ignored). Returns the filled slice.
func (n *Network) setActive(list []int) []bool {
	act := dsp.Resize(n.scr.active, len(n.nodes))
	n.scr.active = act
	if list == nil {
		for i := range act {
			act[i] = true
		}
		return act
	}
	clear(act)
	for _, i := range list {
		if i >= 0 && i < len(act) {
			act[i] = true
		}
	}
	return act
}

// buildScene assembles the radar scene for a frame: the configured clutter
// plus every node's per-chirp switch states. uplinkBits maps node index →
// bits; active nodes without an entry modulate their localization beacon,
// while inactive nodes (scr.active[i] false) hold a static switch state —
// they stay physically present as constant echoes that background
// subtraction removes, exactly like clutter.
func (n *Network) buildScene(frame *fmcw.Frame, uplinkBits map[int][]bool) (radar.Scene, error) {
	scene := radar.Scene{Clutter: n.sceneClutter(), Faults: n.radarInj}
	n.scr.states = growRows(n.scr.states, len(n.nodes))
	tags := n.scr.tags[:0]
	for i, node := range n.nodes {
		var states []bool
		if len(n.scr.active) == len(n.nodes) && !n.scr.active[i] {
			states = dsp.Resize(n.scr.states[i], len(frame.Chirps))
			clear(states)
		} else {
			var serr error
			states, serr = node.Tag.UplinkStatesInto(n.scr.states[i], uplinkBits[i], n.cfg.Period, len(frame.Chirps))
			if serr != nil {
				return radar.Scene{}, fmt.Errorf("core: node %d uplink states: %w", i, serr)
			}
		}
		n.scr.states[i] = states
		tags = append(tags, radar.TagEcho{
			Range:    node.Range,
			States:   states,
			PowerDBm: n.link.UplinkRxPowerDBm(node.Range),
		})
	}
	n.scr.tags = tags
	scene.Tags = tags
	return scene, nil
}

// sceneClutter returns the reflectors every frame's scene holds besides
// the nodes: the configured clutter, plus any fault-profile clutter.
func (n *Network) sceneClutter() []channel.Reflector {
	f := n.cfg.Faults
	if f == nil || len(f.Clutter) == 0 {
		return n.cfg.Clutter
	}
	// Fault-profile clutter (typically moving reflectors) rides on top of
	// the static environment; copy so the config slices stay untouched.
	merged := make([]channel.Reflector, 0, len(n.cfg.Clutter)+len(f.Clutter))
	merged = append(merged, n.cfg.Clutter...)
	return append(merged, f.Clutter...)
}

// warmRadar fills the radar's phasor cache for every chirp duration the
// network's packets use (the header, sync and data symbols of its
// alphabet) under the scene geometry buildScene lays out, so that no
// exchange, whatever its payload, fills a table.
func (n *Network) warmRadar() error {
	durs := []float64{n.alphabet.Header().Duration, n.alphabet.Sync().Duration}
	for i := 0; i < n.alphabet.DataSymbolCount(); i++ {
		s, err := n.alphabet.DataSymbol(i)
		if err != nil {
			return err
		}
		durs = append(durs, s.Duration)
	}
	frame, err := n.builder.Build(durs)
	if err != nil {
		return err
	}
	scene := radar.Scene{Clutter: n.sceneClutter(), Tags: make([]radar.TagEcho, len(n.nodes))}
	for i, node := range n.nodes {
		scene.Tags[i].Range = node.Range
	}
	n.radar.WarmPhasors(frame, scene)
	return nil
}

// Exchange runs one integrated round: the radar transmits the downlink
// packet as a CSSK frame; every node receives it through its own link SNR
// and decodes it; every node simultaneously modulates its uplink bits onto
// the retro-reflection; the radar observes the composite scene, localizes
// each node by its modulation signature and demodulates its bits.
//
// uplinkBits maps node index → bits; nodes without an entry modulate a
// constant-zero pattern (pure localization beacon).
func (n *Network) Exchange(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ExchangeResult, error) {
	return n.ExchangeContext(context.Background(), payload, uplinkBits, opts...)
}

// ExchangeContext is Exchange with cooperative cancellation: ctx is
// checked between every pipeline stage and inside each stage's parallel
// fan-out, so a cancelled exchange returns ctx.Err() promptly instead of
// finishing the round. The parallel stages — per-node downlink decoding,
// per-chirp scene synthesis and IF correction, per-bin signature scans and
// per-node uplink demodulation — all write results by index, and every
// node owns its seeded RNG, so the result is byte-identical for any worker
// count (see Config.Workers / WithWorkers).
func (n *Network) ExchangeContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (res *ExchangeResult, err error) {
	// The sequence counter always advances so exchange identities stay
	// aligned whether or not a trace consumer is attached; the trace itself
	// (and the context wrap) is built only when one is, keeping the
	// disabled path allocation-free.
	seq := n.seq
	n.seq++
	var root *telemetry.SpanNode
	var tr *telemetry.Trace
	if n.tracer != nil || n.flight != nil {
		id := telemetry.NewExchangeID(n.cfg.Seed, n.cfg.NetworkID, seq)
		tr = telemetry.BeginTrace(id, n.cfg.NetworkID, seq, "exchange")
		root = tr.Root
		ctx = telemetry.ContextWithSpan(ctx, root)
	}
	xsp := n.tel.exchange.Span()
	defer func() {
		xsp.End()
		outcome(err, n.tel.exchOK, n.tel.exchErr)
		if tr != nil {
			root.Fail(err)
			root.SetAttr("nodes", len(n.nodes))
			root.End()
			n.tracer.Collect(tr)
			n.flight.Add(tr)
			if err != nil {
				n.flight.Trip("exchange error: " + err.Error())
			}
		}
	}()
	var eo exchangeOptions
	for _, opt := range opts {
		opt(&eo)
	}
	active := n.setActive(eo.active)
	// Size the frame for the packet, the longest active uplink message, and
	// any explicitly requested padding; bits for inactive nodes are ignored
	// (their switches hold a static state this round).
	minChirps := eo.minChirps
	for i, bits := range uplinkBits {
		if i < 0 || i >= len(active) || !active[i] {
			continue
		}
		if c := len(bits) * n.cfg.ChirpsPerBit; c > minChirps {
			minChirps = c
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fsp := n.tel.frameBuild.Span()
	fspan := root.Child("frame.build", -1)
	frame, err := n.BuildDownlinkFrame(payload, minChirps)
	fspan.End()
	fsp.End()
	if err != nil {
		return nil, err
	}
	res = &ExchangeResult{Frame: frame, Nodes: make([]NodeResult, len(n.nodes))}

	// Downlink: each node captures the frame at its own SNR. The decodes
	// are independent (each tag owns its front-end noise source), so they
	// fan out across the pool. The telemetry handles are atomic, so the
	// counter totals are deterministic for any worker count.
	dlStage := root.Child("downlink", -1)
	if err := n.pool.ForContext(ctx, len(n.nodes), func(i int) error {
		if !active[i] {
			// A scheduled-out tag sleeps through the frame (the §4.1 power
			// story): no decode, no telemetry.
			res.Nodes[i].DownlinkErr = ErrNodeInactive
			return nil
		}
		node := n.nodes[i]
		snr := n.link.DownlinkSNRdB(node.Range)
		dlsp := n.tel.downlink.Span()
		nspan := dlStage.Child("node.downlink", i)
		dctx := ctx
		if nspan != nil {
			dctx = telemetry.ContextWithSpan(ctx, nspan)
		}
		pl, diag, derr := node.Tag.ReceiveDownlinkContext(dctx, frame, snr, n.pkt)
		nspan.Fail(derr)
		nspan.End()
		dlsp.End()
		res.Nodes[i].DownlinkPayload = pl
		res.Nodes[i].DownlinkErr = derr
		res.Nodes[i].DownlinkDiag = diag
		nt := n.tel.node(i)
		outcome(derr, n.tel.dlOK, n.tel.dlErr)
		outcome(derr, nt.dlOK, nt.dlErr)
		if n.tel.enabled() {
			e, t := CountBitErrors(payload, pl)
			n.tel.dlBitErrs.Add(int64(e))
			n.tel.dlBits.Add(int64(t))
		}
		return nil
	}); err != nil {
		dlStage.End()
		return nil, err
	}
	dlStage.End()

	// Uplink: build the radar scene with every node's switch states.
	sspan := root.Child("scene.build", -1)
	scene, err := n.buildScene(frame, uplinkBits)
	sspan.End()
	if err != nil {
		return nil, err
	}
	capt, err := n.radar.ObserveContext(ctx, frame, scene)
	if err != nil {
		return nil, err
	}
	cm, grid, err := n.radar.CorrectedMatrixContext(ctx, capt)
	if err != nil {
		return nil, err
	}
	n.scr.mag = radar.MagnitudeMatrixInto(n.scr.mag, cm)
	matrix, bg := radar.SubtractBackgroundMagInto(n.scr.mag, n.scr.bg)
	n.scr.bg = bg
	if n.tel.enabled() {
		// Introspection only: the exchange decode path never consumes the
		// range-Doppler map, so this runs solely to light up the Doppler
		// stage span and peak gauges. Decode results are identical either
		// way.
		n.observeDoppler(cm)
	}

	dtsp := n.tel.detect.Span()
	dspan := root.Child("detect", -1)
	dets, diags, derrs, err := n.detect(ctx, matrix, grid)
	dspan.End()
	dtsp.End()
	if err != nil {
		return nil, err
	}
	// Demodulate every detected node's uplink; the matrix is read-only
	// here and each node writes its own result slot.
	upStage := root.Child("uplink", -1)
	defer upStage.End()
	if err := n.pool.ForContext(ctx, len(n.nodes), func(i int) error {
		node := n.nodes[i]
		res.Nodes[i].Detection = dets[i]
		res.Nodes[i].UplinkDiag = diags[i]
		if !active[i] {
			res.Nodes[i].DetectionErr = ErrNodeInactive
			return nil
		}
		res.Nodes[i].DetectionErr = derrs[i]
		nt := n.tel.node(i)
		outcome(derrs[i], n.tel.detOK, n.tel.detErr)
		outcome(derrs[i], nt.detOK, nt.detErr)
		if derrs[i] != nil {
			if bits, ok := uplinkBits[i]; ok && len(bits) > 0 && n.tel.enabled() {
				// A missed detection loses the whole uplink message:
				// score every pending bit as an error.
				n.tel.upBitErrs.Add(int64(len(bits)))
				n.tel.upBits.Add(int64(len(bits)))
			}
			return nil
		}
		if bits, ok := uplinkBits[i]; ok && len(bits) > 0 {
			usp := n.tel.demod.Span()
			uspan := upStage.Child("node.uplink", i)
			got, uerr := n.radar.DecodeUplinkFSK(matrix, dets[i].Bin, node.Uplink)
			uspan.Fail(uerr)
			uspan.SetAttr("bits", len(bits))
			uspan.End()
			usp.End()
			if uerr == nil && len(got) > len(bits) {
				got = got[:len(bits)]
			}
			res.Nodes[i].UplinkBits = got
			res.Nodes[i].UplinkErr = uerr
			outcome(uerr, n.tel.upOK, n.tel.upErr)
			outcome(uerr, nt.upOK, nt.upErr)
			if n.tel.enabled() {
				n.tel.upBitErrs.Add(int64(CountBitMismatches(bits, got)))
				n.tel.upBits.Add(int64(len(bits)))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// CountBitMismatches scores a decoded uplink bit vector against the sent
// ground truth: a mismatch, or a sent bit missing from got, is one error.
func CountBitMismatches(sent, got []bool) int {
	errs := 0
	for i, b := range sent {
		if i >= len(got) || got[i] != b {
			errs++
		}
	}
	return errs
}

// detect runs the radar's joint tag search over the round's active nodes,
// each searched on its F0 and F1 tones. The results are radar-owned scratch
// (see radar.DetectTags); an inactive node's entries are zero, with a nil
// error. A cancelled ctx aborts before the search and returns ctx.Err().
func (n *Network) detect(ctx context.Context, matrix [][]float64, grid []float64) ([]radar.Detection, []radar.DetectionDiag, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	n.scr.tones = growRows(n.scr.tones, len(n.nodes))
	tones := n.scr.tones[:len(n.nodes)]
	for i, node := range n.nodes {
		tones[i] = append(tones[i][:0], node.Uplink.F0, node.Uplink.F1)
	}
	dets, diags, errs := n.radar.DetectTags(matrix, grid, tones, n.scr.active, n.cfg.Period)
	return dets, diags, errs, nil
}

// ScheduledResult is the outcome of one full frame-schedule cycle: every
// node served exactly once across the cycle's rounds.
type ScheduledResult struct {
	// Rounds holds one ExchangeResult per served frame group, in group
	// order. In each round only that group's nodes are active; the rest
	// carry ErrNodeInactive. Under WithActiveNodes, groups with no active
	// member are skipped and contribute no round.
	Rounds []*ExchangeResult
	// Nodes holds the merged per-node results: node i's entry comes from
	// the round in which its group was active.
	Nodes []NodeResult
}

// ExchangeScheduled runs one full schedule cycle; see
// ExchangeScheduledContext.
func (n *Network) ExchangeScheduled(payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ScheduledResult, error) {
	return n.ExchangeScheduledContext(context.Background(), payload, uplinkBits, opts...)
}

// ExchangeScheduledContext serves every node over one frame-schedule cycle:
// one exchange round per frame group, with only that group's tags
// modulating (the others hold static switch states, so shared FSK pairs
// never collide). The payload is retransmitted in every round — each tag
// decodes it during its own group's frame — and uplinkBits maps node index
// → bits exactly as in Exchange, split across rounds by group membership.
// WithActiveNodes restricts the cycle to a subset of nodes: each group is
// intersected with the set and empty groups are skipped (a distributed
// gateway serving a partially-attended round pays only for the frames that
// carry traffic). On a network without a schedule the cycle is a single
// all-active round.
//
// The merged Nodes view aliases the per-round results, which follow the
// Network ownership contract: valid until the next call on this Network.
func (n *Network) ExchangeScheduledContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ScheduledResult, error) {
	sched := n.cfg.Schedule
	if sched == nil {
		res, err := n.ExchangeContext(ctx, payload, uplinkBits, opts...)
		if err != nil {
			return nil, err
		}
		return &ScheduledResult{Rounds: []*ExchangeResult{res}, Nodes: res.Nodes}, nil
	}
	out := &ScheduledResult{
		Rounds: make([]*ExchangeResult, 0, sched.Frames()),
		Nodes:  make([]NodeResult, len(n.nodes)),
	}
	// A caller-supplied active subset (WithActiveNodes) intersects each
	// frame group: only the named nodes modulate, and a group with no
	// active member sits the cycle out entirely — no frame is spent on it,
	// and no sequence number is consumed, so a partially-attended cycle
	// replays deterministically from its recorded active set.
	var eo exchangeOptions
	for _, opt := range opts {
		opt(&eo)
	}
	var activeSet map[int]bool
	if eo.active != nil {
		activeSet = make(map[int]bool, len(eo.active))
		for _, i := range eo.active {
			activeSet[i] = true
		}
	}
	if n.scr.roundBits == nil {
		n.scr.roundBits = make(map[int][]bool)
	}
	for g := 0; g < sched.Frames(); g++ {
		grp := sched.AppendGroup(n.scr.group[:0], g)
		n.scr.group = grp
		if activeSet != nil {
			k := 0
			for _, i := range grp {
				if activeSet[i] {
					grp[k] = i
					k++
				}
			}
			grp = grp[:k]
			if len(grp) == 0 {
				continue
			}
		}
		clear(n.scr.roundBits)
		for _, i := range grp {
			if bits, ok := uplinkBits[i]; ok {
				n.scr.roundBits[i] = bits
			}
		}
		ropts := make([]ExchangeOption, 0, len(opts)+1)
		ropts = append(ropts, opts...)
		ropts = append(ropts, WithActiveNodes(grp...))
		res, err := n.ExchangeContext(ctx, payload, n.scr.roundBits, ropts...)
		if err != nil {
			return nil, fmt.Errorf("core: schedule group %d: %w", g, err)
		}
		out.Rounds = append(out.Rounds, res)
		for _, i := range grp {
			out.Nodes[i] = res.Nodes[i]
		}
	}
	return out, nil
}

// Localize runs a sensing round (with the given frame, or a fixed-slope
// sensing frame when frame is nil) and returns per-node detections. Nodes
// modulate their localization beacons (constant zero bits → F0 tone). On a
// scheduled network the beacons run one frame group at a time (shared FSK
// pairs must not beacon simultaneously), reusing the frame across groups.
func (n *Network) Localize(frame *fmcw.Frame, chirps int) ([]radar.Detection, error) {
	return n.LocalizeContext(context.Background(), frame, chirps)
}

// LocalizeContext is Localize with cooperative cancellation between and
// inside the pipeline stages.
func (n *Network) LocalizeContext(ctx context.Context, frame *fmcw.Frame, chirps int) ([]radar.Detection, error) {
	var err error
	if frame == nil {
		frame, err = n.BuildSensingFrame(chirps)
		if err != nil {
			return nil, err
		}
	}
	sched := n.cfg.Schedule
	groups := 1
	if sched != nil {
		groups = sched.Frames()
	}
	out := make([]radar.Detection, len(n.nodes))
	for g := 0; g < groups; g++ {
		if sched == nil {
			n.setActive(nil)
		} else {
			grp := sched.AppendGroup(n.scr.group[:0], g)
			n.scr.group = grp
			n.setActive(grp)
		}
		scene, err := n.buildScene(frame, nil)
		if err != nil {
			return nil, err
		}
		capt, err := n.radar.ObserveContext(ctx, frame, scene)
		if err != nil {
			return nil, err
		}
		cm, grid, err := n.radar.CorrectedMatrixContext(ctx, capt)
		if err != nil {
			return nil, err
		}
		n.scr.mag = radar.MagnitudeMatrixInto(n.scr.mag, cm)
		matrix, bg := radar.SubtractBackgroundMagInto(n.scr.mag, n.scr.bg)
		n.scr.bg = bg
		dets, _, derrs, err := n.detect(ctx, matrix, grid)
		if err != nil {
			return nil, err
		}
		for i, derr := range derrs {
			if !n.scr.active[i] {
				continue
			}
			if derr != nil {
				return nil, fmt.Errorf("core: node %d: %w", i, derr)
			}
			out[i] = dets[i]
		}
	}
	return out, nil
}

// MapEnvironment runs a sensing frame and returns the radar's static-object
// map (CFAR detections over the averaged corrected range profile) — the
// primary sensing output that keeps running during communication.
func (n *Network) MapEnvironment(chirps int) ([]radar.MapTarget, error) {
	return n.MapEnvironmentContext(context.Background(), chirps)
}

// MapEnvironmentContext is MapEnvironment with cooperative cancellation
// between and inside the pipeline stages.
func (n *Network) MapEnvironmentContext(ctx context.Context, chirps int) ([]radar.MapTarget, error) {
	frame, err := n.BuildSensingFrame(chirps)
	if err != nil {
		return nil, err
	}
	n.setActive(nil)
	scene, err := n.buildScene(frame, nil)
	if err != nil {
		return nil, err
	}
	capt, err := n.radar.ObserveContext(ctx, frame, scene)
	if err != nil {
		return nil, err
	}
	cm, grid, err := n.radar.CorrectedMatrixContext(ctx, capt)
	if err != nil {
		return nil, err
	}
	return n.radar.EnvironmentMap(radar.MagnitudeMatrix(cm), grid)
}

// RandomPayload generates a deterministic pseudo-random payload of n bytes
// for BER experiments, seeded per call.
func RandomPayload(seed int64, n int) []byte {
	out := make([]byte, n)
	s := uint64(seed)*2654435761 + 1
	for i := range out {
		// xorshift64
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = byte(s)
	}
	return out
}

// CountBitErrors compares two payloads bit by bit, returning the number of
// differing bits over the total. The length policy is asymmetric in what
// the two arguments mean but symmetric in cost: total spans
// max(len(sent), len(got)) bytes, bytes missing from got count all eight
// bits as errors (data the receiver lost), and extra trailing bytes in got
// also count all eight bits as errors (spurious data the receiver would
// act on). A decode that returns more bytes than were sent is therefore no
// longer scored as error-free.
func CountBitErrors(sent, got []byte) (errs, total int) {
	n := len(sent)
	if len(got) > n {
		n = len(got)
	}
	total = n * 8
	for i := 0; i < n; i++ {
		switch {
		case i >= len(got) || i >= len(sent):
			errs += 8
		default:
			errs += popcount8(sent[i] ^ got[i])
		}
	}
	return errs, total
}

func popcount8(b byte) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}
