package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

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
	n.scr.states = dsp.EnsureRows(n.scr.states, len(n.nodes))
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

// warmRadar fills the radar's phasor and chirp-z caches for every chirp
// duration the network's packets use (the header, sync and data symbols of
// its alphabet) under the scene geometry buildScene lays out, so that no
// exchange, whatever its payload, fills a table. Every packet carries the
// sync chirp, the alphabet's steepest, so its frames share this frame's
// common range grid and hence its chirp-z plans.
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
	return n.radar.WarmChirpZ(frame)
}

// The exchange is one ordered list of named stages. Each stage is timed
// once, from its name (telemetry.Metrics.StartSpan): one span feeds both
// the histogram "<name>.seconds" and, on a traced round, the trace span
// <name>. The names are roundbench's: the round (stageExchange, the trace
// root), the round stages below, and the per-node units (tag.capture,
// tag.decode, packet.deframe in tag.downlink; radar.uplink_demod after).
const stageExchange = "core.exchange"

// stage is one named round-level step of the exchange.
type stage struct {
	name string
	run  func(n *Network, ctx context.Context, x *exchangeState) error
}

// exchangeStages is the exchange's round-level pipeline, in order.
var exchangeStages = []stage{
	{"packet.frame_build", (*Network).frameBuildStage},
	{"tag.downlink", (*Network).downlinkStage},
	{"tag.uplink_states", func(n *Network, _ context.Context, x *exchangeState) (err error) {
		x.scene, err = n.buildScene(x.frame, x.bits)
		return err
	}},
	{"radar.observe", func(n *Network, ctx context.Context, x *exchangeState) (err error) {
		x.capt, err = n.radar.ObserveContext(ctx, x.frame, x.scene)
		return err
	}},
	{"radar.corrected", func(n *Network, ctx context.Context, x *exchangeState) (err error) {
		x.cm, x.grid, err = n.radar.CorrectedMatrixContext(ctx, x.capt)
		return err
	}},
	{"radar.background", func(n *Network, _ context.Context, x *exchangeState) error {
		n.scr.mag = radar.MagnitudeMatrixInto(n.scr.mag, x.cm)
		x.matrix, n.scr.bg = radar.SubtractBackgroundMagInto(n.scr.mag, n.scr.bg)
		return nil
	}},
	{"radar.detect", func(n *Network, ctx context.Context, x *exchangeState) (err error) {
		x.dets, x.diags, x.derrs, err = n.detect(ctx, x.matrix, x.grid)
		return err
	}},
}

// The sensing rounds run the radar side of the same list: Localize from the
// scene up to detection, MapEnvironment up to the corrected matrix.
var (
	localizeStages = exchangeStages[2:7]
	mapStages      = exchangeStages[2:5]
)

// exchangeState is one round's inputs and what each stage leaves for the
// next; it lives in exchangeScratch.
type exchangeState struct {
	payload   []byte
	bits      map[int][]bool
	minChirps int

	frame  *fmcw.Frame
	res    *ExchangeResult
	scene  radar.Scene
	capt   *radar.Capture
	cm     [][]complex128
	grid   []float64
	matrix [][]float64
	dets   []radar.Detection
	diags  []radar.DetectionDiag
	derrs  []error
}

// runStages runs stages in order, checking ctx between them.
func (n *Network) runStages(ctx context.Context, x *exchangeState, stages []stage) error {
	for _, s := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp, sctx := n.tel.m.StartSpan(ctx, s.name, -1)
		err := s.run(n, sctx, x)
		sp.Fail(err)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// frameBuildStage builds a frame long enough for the packet, the padding
// asked for and the longest active uplink message, and opens the result.
func (n *Network) frameBuildStage(_ context.Context, x *exchangeState) error {
	minChirps := x.minChirps
	for i, bits := range x.bits {
		if i >= 0 && i < len(n.scr.active) && n.scr.active[i] {
			minChirps = max(minChirps, len(bits)*n.cfg.ChirpsPerBit)
		}
	}
	frame, err := n.BuildDownlinkFrame(x.payload, minChirps)
	if err != nil {
		return err
	}
	x.frame = frame
	x.res = &ExchangeResult{Frame: frame, Nodes: make([]NodeResult, len(n.nodes))}
	return nil
}

// downlinkStage has each active node capture the frame at its own SNR and
// decode it. The decodes are independent (each tag owns its front-end noise
// source), so they fan out across the pool. The telemetry handles are
// atomic, so the counter totals are deterministic for any worker count.
func (n *Network) downlinkStage(ctx context.Context, x *exchangeState) error {
	return n.pool.ForContext(ctx, len(n.nodes), func(i int) error {
		nr := &x.res.Nodes[i]
		if !n.scr.active[i] {
			// A scheduled-out tag sleeps through the frame (the §4.1 power
			// story): no decode, no telemetry.
			nr.DownlinkErr = ErrNodeInactive
			return nil
		}
		node := n.nodes[i]
		snr := n.link.DownlinkSNRdB(node.Range)
		sp, _ := n.tel.m.StartSpan(ctx, "tag.capture", i)
		capt := node.Tag.FrontEnd.CaptureFrame(x.frame, snr)
		sp.End()
		nr.DownlinkPayload, nr.DownlinkDiag, nr.DownlinkErr = n.decodeDownlink(ctx, i, capt)
		nt := n.tel.node(i)
		outcome(nr.DownlinkErr, n.tel.dlOK, n.tel.dlErr)
		outcome(nr.DownlinkErr, nt.dlOK, nt.dlErr)
		if n.tel.enabled() {
			e, t := CountBitErrors(x.payload, nr.DownlinkPayload)
			n.tel.dlBitErrs.Add(int64(e))
			n.tel.dlBits.Add(int64(t))
		}
		return nil
	})
}

// decodeDownlink decodes node i's capture and deframes the symbols.
func (n *Network) decodeDownlink(ctx context.Context, i int, capt []float64) ([]byte, tag.Diagnostics, error) {
	sp, _ := n.tel.m.StartSpan(ctx, "tag.decode", i)
	syms, diag, err := n.nodes[i].Tag.Decoder.DecodeFrame(capt)
	sp.Fail(err)
	sp.End()
	if err != nil {
		return nil, diag, err
	}
	sp, _ = n.tel.m.StartSpan(ctx, "packet.deframe", i)
	payload, st, err := n.pkt.DecodeStats(syms)
	sp.Fail(err)
	sp.End()
	diag.FECCodedBits = st.CodedBits
	diag.FECCorrectedBits = st.CorrectedBits
	return payload, diag, err
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
func (n *Network) ExchangeContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ExchangeResult, error) {
	eo := collectExchangeOptions(opts)
	n.setActive(eo.active)
	return n.exchange(ctx, payload, uplinkBits, eo.minChirps)
}

// exchange runs one round over the active set setActive left.
func (n *Network) exchange(ctx context.Context, payload []byte, uplinkBits map[int][]bool, minChirps int) (res *ExchangeResult, err error) {
	// The sequence counter always advances so exchange identities stay
	// aligned whether or not a trace consumer is attached; the trace itself
	// (and the context wrap) is built only when one is, keeping the
	// disabled path allocation-free.
	seq := n.seq
	n.seq++
	var tr *telemetry.Trace
	if n.tracer != nil {
		id := telemetry.NewExchangeID(n.cfg.Seed, n.cfg.NetworkID, seq)
		tr = telemetry.BeginTrace(id, n.cfg.NetworkID, seq, stageExchange)
		ctx = telemetry.ContextWithSpan(ctx, tr.Root)
	}
	sp := tr.Span(n.tel.m.Histogram(stageExchange + ".seconds"))
	defer func() {
		outcome(err, n.tel.exchOK, n.tel.exchErr)
		sp.Fail(err)
		sp.End()
		if tr != nil {
			tr.Root.SetAttr("nodes", len(n.nodes))
			n.tracer.Collect(tr)
			if err != nil {
				n.tracer.Trip("exchange error: " + err.Error())
			}
		}
	}()
	x := &n.scr.x
	*x = exchangeState{payload: payload, bits: uplinkBits, minChirps: minChirps}
	if err := n.runStages(ctx, x, exchangeStages); err != nil {
		return nil, err
	}
	if n.tel.enabled() {
		n.observeDoppler(x.cm) // introspection only: nothing decoded reads it
	}
	if err := n.uplinkDemod(ctx, x); err != nil {
		return nil, err
	}
	return x.res, nil
}

// uplinkDemod fills every node's detection and demodulates each detected
// active node's uplink, each node into its own result slot.
func (n *Network) uplinkDemod(ctx context.Context, x *exchangeState) error {
	return n.pool.ForContext(ctx, len(n.nodes), func(i int) error {
		nr := &x.res.Nodes[i]
		nr.Detection = x.dets[i]
		nr.UplinkDiag = x.diags[i]
		if !n.scr.active[i] {
			nr.DetectionErr = ErrNodeInactive
			return nil
		}
		derr := x.derrs[i]
		nr.DetectionErr = derr
		nt := n.tel.node(i)
		outcome(derr, n.tel.detOK, n.tel.detErr)
		outcome(derr, nt.detOK, nt.detErr)
		bits := x.bits[i]
		if len(bits) == 0 {
			return nil
		}
		if derr != nil {
			if n.tel.enabled() {
				// A missed detection loses the whole uplink message:
				// score every pending bit as an error.
				n.tel.upBitErrs.Add(int64(len(bits)))
				n.tel.upBits.Add(int64(len(bits)))
			}
			return nil
		}
		sp, _ := n.tel.m.StartSpan(ctx, "radar.uplink_demod", i)
		got, uerr := n.radar.DecodeUplinkFSK(x.matrix, x.dets[i].Bin, n.nodes[i].Uplink)
		sp.Fail(uerr)
		sp.End()
		if uerr == nil && len(got) > len(bits) {
			got = got[:len(bits)]
		}
		nr.UplinkBits = got
		nr.UplinkErr = uerr
		outcome(uerr, n.tel.upOK, n.tel.upErr)
		outcome(uerr, nt.upOK, nt.upErr)
		if n.tel.enabled() {
			n.tel.upBitErrs.Add(int64(CountBitMismatches(bits, got)))
			n.tel.upBits.Add(int64(len(bits)))
		}
		return nil
	})
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
	n.scr.tones = dsp.EnsureRows(n.scr.tones, len(n.nodes))
	tones := n.scr.tones[:len(n.nodes)]
	for i, node := range n.nodes {
		tones[i] = append(tones[i][:0], node.Uplink.F0, node.Uplink.F1)
	}
	dets, diags, errs := n.radar.DetectTags(matrix, grid, tones, n.scr.active, n.cfg.Period)
	return dets, diags, errs, nil
}

// eachGroup runs round once per schedule frame group, with the active set
// being the group (intersected with only, when non-nil; a group left empty
// is skipped). An unscheduled network is one round over only (nil: all).
func (n *Network) eachGroup(only []int, round func(g int) error) error {
	sched := n.cfg.Schedule
	if sched == nil {
		n.setActive(only)
		return round(0)
	}
	for g := 0; g < sched.Frames(); g++ {
		grp := sched.AppendGroup(n.scr.group[:0], g)
		if only != nil {
			in := n.setActive(only)
			grp = slices.DeleteFunc(grp, func(i int) bool { return !in[i] })
			if len(grp) == 0 {
				continue
			}
		}
		n.scr.group = grp
		n.setActive(grp)
		if err := round(g); err != nil {
			return err
		}
	}
	return nil
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
// round, as Exchange runs it.
//
// The merged Nodes view aliases the per-round results, which follow the
// Network ownership contract: valid until the next call on this Network.
func (n *Network) ExchangeScheduledContext(ctx context.Context, payload []byte, uplinkBits map[int][]bool, opts ...ExchangeOption) (*ScheduledResult, error) {
	eo := collectExchangeOptions(opts)
	sched := n.cfg.Schedule
	out := &ScheduledResult{Nodes: make([]NodeResult, len(n.nodes))}
	// A skipped group consumes no sequence number, so a partially-attended
	// cycle replays deterministically from its recorded active set.
	err := n.eachGroup(eo.active, func(g int) error {
		res, err := n.exchange(ctx, payload, uplinkBits, eo.minChirps)
		if err != nil {
			if sched == nil {
				return err
			}
			return fmt.Errorf("core: schedule group %d: %w", g, err)
		}
		out.Rounds = append(out.Rounds, res)
		for i, a := range n.scr.active {
			if a || sched == nil {
				out.Nodes[i] = res.Nodes[i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	out := make([]radar.Detection, len(n.nodes))
	err = n.eachGroup(nil, func(int) error {
		x := &n.scr.x
		*x = exchangeState{frame: frame}
		if err := n.runStages(ctx, x, localizeStages); err != nil {
			return err
		}
		for i, derr := range x.derrs {
			if !n.scr.active[i] {
				continue
			}
			if derr != nil {
				return fmt.Errorf("core: node %d: %w", i, derr)
			}
			out[i] = x.dets[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	x := &n.scr.x
	*x = exchangeState{frame: frame}
	if err := n.runStages(ctx, x, mapStages); err != nil {
		return nil, err
	}
	n.scr.mag = radar.MagnitudeMatrixInto(n.scr.mag, x.cm)
	return n.radar.EnvironmentMap(n.scr.mag, x.grid)
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
			errs += bits.OnesCount8(sent[i] ^ got[i])
		}
	}
	return errs, total
}
