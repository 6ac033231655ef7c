package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/telemetry"
	"biscatter/internal/trace"
)

const (
	// setupRepeats is how many fresh constructions set-up time is the
	// median of, in setupBatches batches: one before each equal segment of
	// the timed loop.
	setupRepeats = 15
	setupBatches = 5
	// minRounds extends a timed loop until round_p90_ms has ten samples
	// beyond it even for one submission per round.
	minRounds = 100
	// twinRounds is how many warm rounds the twins exchange and walk:
	// enough for a p90 of every per-frame layer timing.
	twinRounds = 100
	// twinSpeedupRounds bounds the workers=1 twin behind parallel.speedup.
	twinSpeedupRounds = 20
	// taskRounds is how many warm rounds the task-counting twin runs.
	taskRounds = 2
)

// usage is a process resource snapshot.
type usage struct {
	at     time.Time
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	pause  uint64
	maxRSS int64 // KiB
}

func takeUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		gcs:    ms.NumGC,
		pause:  ms.PauseTotalNs,
		maxRSS: ru.Maxrss,
	}
}

// loopResult is one timed closed loop, summed over its segments.
type loopResult struct {
	subs      []submission
	rounds    int
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	pause     uint64
	maxRSS    int64 // KiB, the process peak at the end of the last segment
}

// add accounts one segment between two snapshots.
func (l *loopResult) add(before, after usage) {
	l.wall += after.at.Sub(before.at)
	l.cpu += after.cpu - before.cpu
	l.alloc += after.alloc - before.alloc
	l.gcs += after.gcs - before.gcs
	l.pause += after.pause - before.pause
	l.maxRSS = after.maxRSS
}

func (l *loopResult) perRound(v float64) float64 { return v / float64(l.rounds) }

// latency is the submit→result time of every submission.
func (l *loopResult) latency() *dist {
	d := &dist{}
	for _, s := range l.subs {
		d.addDur(s.end.Sub(s.start))
	}
	return d
}

// runLoop runs one segment into lr: rounds first, first+1, ... back to back
// for at least dur and at least atLeast rounds, after a GC so no earlier
// garbage is collected inside the timing. It returns the next round index.
func runLoop(s server, lr *loopResult, first uint64, dur time.Duration, atLeast int) (uint64, error) {
	runtime.GC()
	before := takeUsage()
	idx := first
	for n := 1; ; n++ {
		subs, err := s.round(context.Background(), idx)
		if err != nil {
			return idx, err
		}
		lr.subs = append(lr.subs, subs...)
		idx++
		if time.Since(before.at) >= dur && n >= atLeast {
			lr.rounds += n
			break
		}
	}
	lr.add(before, takeUsage())
	return idx, nil
}

// quality scores delivered results against the generated inputs.
type quality struct {
	roundOK, dlOK, ulBits, rangeOK ratio
}

// score checks every submission: byte-exact downlink payload, uplink bits,
// and a detection within one range bin — the radar's range resolution
// c/2B — of the node's true range.
func score(w workload, in inputs, subs []submission) (quality, error) {
	var q quality
	cfg, err := w.config()
	if err != nil {
		return q, err
	}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		return q, err
	}
	bin := n.Config().Preset.Chirp.RangeResolution()
	for _, sub := range subs {
		q.roundOK.count(sub.ok)
		payload := in.payload(sub.round)
		for _, no := range sub.nodes {
			q.dlOK.count(sub.ok && no.dlErr == "" && bytes.Equal(no.payload, payload))
			for j, b := range in.uplink(sub.round, no.node) {
				q.ulBits.count(sub.ok && j < len(no.bits) && no.bits[j] == b)
			}
			q.rangeOK.count(sub.ok && no.detErr == "" && math.Abs(no.rangeM-w.nodes[no.node].Range) <= bin)
		}
	}
	return q, nil
}

func failedCount(subs []submission) int {
	n := 0
	for _, s := range subs {
		if !s.ok {
			n++
		}
	}
	return n
}

// timeSetups opens n fresh servers one after another, appending each one's
// set-up time, and closes all but the last, which it returns.
func timeSetups(w workload, in inputs, n int, setups *[]float64) (server, error) {
	for k := 0; ; k++ {
		runtime.GC()
		t0 := time.Now()
		s, err := open(w, in, nil)
		if err != nil {
			return nil, err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
		if k == n-1 {
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
}

// runEndToEnd is the untraced run: the timed loop in setupBatches equal
// segments, each after a batch of fresh constructions that set-up time is
// taken from, then the correctness gate. The host's speed drifts over
// seconds, so set-up samples spread over the loop see what the loop sees;
// one burst of them would sample the drift once. The first batch's last
// construction serves the loop.
func runEndToEnd(w workload, seed int64, dur time.Duration) (*report, error) {
	in := w.inputs(seed)
	setups := make([]float64, 0, setupRepeats)
	perBatch := setupRepeats / setupBatches
	srv, err := timeSetups(w, in, perBatch, &setups)
	if err != nil {
		return nil, err
	}
	lp := &loopResult{subs: make([]submission, 0, 4096)}
	next := uint64(1)
	for seg := 0; err == nil && seg < setupBatches; seg++ {
		if seg > 0 {
			var s server
			if s, err = timeSetups(w, in, perBatch, &setups); err == nil {
				err = s.close()
			}
		}
		if err == nil {
			next, err = runLoop(srv, lp, next, dur/setupBatches, minRounds/setupBatches)
		}
	}
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	gate := srv.verify(lp.subs)
	q, err := score(w, in, lp.subs)
	if err != nil {
		return nil, err
	}

	rep := newReport(lp.subs, gate)
	lat := lp.latency()
	p90, ok := lat.tail()
	if !ok {
		return nil, fmt.Errorf("%d round samples cannot support a p90", lat.n())
	}
	wall := lp.wall.Seconds()
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d fresh constructions in %d batches between loop segments, each to the end of a warm-up round", len(setups), setupBatches))
	rep.add("round_p50_ms", lat.quantile(50), "ms", "SubmitRound→RoundResult: "+lat.describe())
	rep.add("round_p90_ms", p90, "ms", fmt.Sprintf("n=%d over %d rounds", lat.n(), lp.rounds))
	rep.add("goodput_bps", float64(q.ulBits.ok)/wall, "bit/s", fmt.Sprintf("%d correct uplink bits in %.3f s", q.ulBits.ok, wall))
	rep.add("cpu_ms_per_round", lp.perRound(float64(lp.cpu)/1e6), "ms", fmt.Sprintf("user+sys over %d rounds", lp.rounds))
	rep.add("alloc_kb_per_round", lp.perRound(float64(lp.alloc)/1024), "KiB", "")
	rep.add("max_rss_mb", float64(lp.maxRSS)/1024, "MiB", "process peak, set-up included")
	rep.add("round_ok_ratio", q.roundOK.value(), "ratio", "RoundOK over submissions: "+q.roundOK.String())
	rep.add("dl_ok_ratio", q.dlOK.value(), "ratio", "byte-exact payloads over node downlinks: "+q.dlOK.String())
	rep.add("ul_bit_ok_ratio", q.ulBits.value(), "ratio", "uplink bits: "+q.ulBits.String())
	rep.add("range_ok_ratio", q.rangeOK.value(), "ratio", "detections within one range bin: "+q.rangeOK.String())
	return rep, nil
}

// runTraced is the traced run. It times an undecorated loop (the
// reference for the tracing overhead and the runtime counters), then a loop
// with the Conn and ExchangeFunc decorators attached (served workloads),
// then walks the layers on twin networks.
func runTraced(w workload, seed int64, dur time.Duration) (*report, error) {
	in := w.inputs(seed)
	half := dur / 2

	s, err := open(w, in, nil)
	if err != nil {
		return nil, err
	}
	lu := &loopResult{}
	_, err = runLoop(s, lu, 1, half, minRounds)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	q, err := score(w, in, lu.subs)
	if err != nil {
		return nil, err
	}

	// The second loop carries the decorators on the served workloads. In
	// process there is nothing to decorate, and the two loops' difference
	// is the noise floor of the overhead figure.
	var tap *wireTap
	var sids []uint64
	if w.served() {
		tap = newWireTap()
	}
	s2, err := open(w, in, tap)
	if err != nil {
		return nil, err
	}
	if tap != nil {
		for _, c := range s2.(*gatewayServer).clients {
			sids = append(sids, c.SessionID())
		}
		tap.start()
	}
	lt := &loopResult{}
	_, err = runLoop(s2, lt, 1, half, minRounds)
	if tap != nil {
		tap.stop()
	}
	if cerr := s2.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	gate := s2.verify(lt.subs)
	untraced, traced := lu.latency().quantile(50), lt.latency().quantile(50)
	subs := append(lu.subs, lt.subs...)
	var wr wireReport
	service := lu.latency()
	if tap != nil {
		wr = tap.report(lt.subs, sids, lt.rounds)
		service = &wr.service
	}

	tw, err := runTwins(w, in)
	if err != nil {
		return nil, err
	}
	rep := newReport(subs, errors.Join(gate, tw.mismatch))

	rate, err := w.aggregateBitRate(tw.period)
	if err != nil {
		return nil, err
	}
	addTiming := func(name, unit string, d *dist, note string) {
		p90, ok := d.tail()
		tail := "p90"
		if !ok {
			tail = "max (too few samples for a p90)"
		}
		rep.add(name+".p50", d.quantile(50), unit, note+": "+d.describe())
		rep.add(name+".p90", p90, unit, tail)
	}

	// netio: zero on the in-process workload, which has no wire.
	addTiming("netio.wire_in_ms", "ms", &wr.wireIn, "client Send → gateway Recv")
	addTiming("netio.skew_ms", "ms", &wr.skew, "the round's first submit Recv → its last")
	addTiming("netio.barrier_ms", "ms", &wr.barrier, "last submit's Recv → handler entry")
	addTiming("netio.result_queue_ms", "ms", &wr.resultQueue, "handler exit → the result's Send")
	addTiming("netio.wire_out_ms", "ms", &wr.wireOut, "gateway Send → client Recv")
	addTiming("netio.send_us", "us", &wr.sendUs, "Conn.Send call")
	rep.add("netio.msgs_per_round", wr.msgsPerRound, "count", "messages sent by every endpoint")
	rep.add("netio.bytes_per_round", wr.bytesPerRound, "B", "marshalled envelope bytes")
	rep.add("netio.attempts_per_submit", wr.attemptsPerSubmit, "count", "1 + netio.client.retries per submission")
	rep.add("netio.coverage", wr.coverage(), "ratio", fmt.Sprintf("chained parts %.1f of %.1f ms client round time, %d matched, %d unmatched", wr.chained, wr.total, wr.matched, wr.unmatched))

	addTiming("core.service_ms", "ms", service, "gateway handler (in process: the Exchange call)")
	addTiming("core.exchange_ms", "ms", &tw.exchange, fmt.Sprintf("twin exchange at workers=%d", w.workers))
	rep.add("core.orchestration_ms", tw.orchestration.quantile(50), "ms", "core.exchange_ms minus the walked layers, per round: "+tw.orchestration.describe())
	rep.add("core.coverage", tw.coverage(), "ratio", fmt.Sprintf("walked layers %.1f of %.1f ms exchange over %d rounds", tw.walked, tw.exchanged, tw.rounds))

	ly := &tw.layers
	addTiming("packet.frame_build_ms", "ms", &ly.frameBuild, "BuildDownlinkFrame")
	addTiming("packet.deframe_us", "us", &ly.deframe, "Config.DecodeStats")
	addTiming("tag.capture_ms", "ms", &ly.capture, "FrontEnd.CaptureFrame per node")
	rep.add("tag.capture_kb", ly.captureKB.quantile(50), "KiB", "float64 ADC samples per capture")
	addTiming("tag.period_ms", "ms", &ly.period, "Decoder.EstimatePeriod")
	addTiming("tag.align_ms", "ms", &ly.align, "Decoder.AlignChirpStart")
	addTiming("tag.symbols_ms", "ms", &ly.symbols, "Decoder.DecodeSymbols")
	addTiming("tag.downlink_ms", "ms", &ly.downlink, fmt.Sprintf("every node's capture and decode at pool width %d", w.workers))
	addTiming("tag.uplink_states_ms", "ms", &ly.uplinkStates, "Tag.UplinkStatesInto for every node")
	addTiming("radar.observe_ms", "ms", &ly.observe, "Radar.Observe")
	addTiming("radar.corrected_ms", "ms", &ly.corrected, "Radar.CorrectedMatrix: range FFT + IF correction")
	rep.add("radar.range_fft_mflop", ly.fftMflop.quantile(50), "MFLOP", "5·N·log2 N per chirp, per frame")
	addTiming("radar.background_ms", "ms", &ly.background, "MagnitudeMatrixInto + SubtractBackgroundMagInto")
	addTiming("radar.signature_ms", "ms", &ly.signature, "Radar.SignatureProfilesInto")
	addTiming("radar.uplink_demod_us", "us", &ly.demod, "Radar.DecodeUplinkFSK per node")

	rep.add("parallel.speedup", tw.speedup, "x", tw.speedupNote)
	rep.add("parallel.tasks_per_exchange", tw.tasks, "count", "parallel.tasks_completed per Exchange call, Doppler-map tasks removed")
	rep.add("trace.record_bytes_per_round", tw.recordBytes, "B", "ExchangeRecord growth per round")
	goodput := float64(q.ulBits.ok) / lu.wall.Seconds()
	rep.add("mac.goodput_share", goodput/rate, "ratio", fmt.Sprintf("goodput %.1f bit/s over the schedule bound %.1f bit/s", goodput, rate))
	rep.add("runtime.gc_per_round", lu.perRound(float64(lu.gcs)), "count", fmt.Sprintf("untraced loop, %d rounds", lu.rounds))
	rep.add("runtime.gc_pause_us_per_round", lu.perRound(float64(lu.pause)/1e3), "us", "")
	rep.add("tracing.overhead_ms", traced-untraced, "ms", fmt.Sprintf("traced round_p50 %.3f ms minus untraced %.3f ms", traced, untraced))
	return rep, nil
}

// exchanger is what the twins drive: a Network or its ExchangeRecorder.
type exchanger interface {
	Exchange(payload []byte, bits map[int][]bool, opts ...core.ExchangeOption) (*core.ExchangeResult, error)
	ExchangeScheduled(payload []byte, bits map[int][]bool, opts ...core.ExchangeOption) (*core.ScheduledResult, error)
}

// exchangeRound runs one round the way the workload's server does and
// returns its frames.
func exchangeRound(x exchanger, scheduled bool, payload []byte, bits map[int][]bool) ([]*core.ExchangeResult, error) {
	if scheduled {
		res, err := x.ExchangeScheduled(payload, bits)
		if err != nil {
			return nil, err
		}
		return res.Rounds, nil
	}
	res, err := x.Exchange(payload, bits)
	if err != nil {
		return nil, err
	}
	return []*core.ExchangeResult{res}, nil
}

// twinResult is the physics split on twin networks.
type twinResult struct {
	exchange, orchestration dist
	walked, exchanged       float64 // ms over the counted rounds
	rounds                  int
	layers                  layerTimes
	period                  float64
	speedup                 float64
	speedupNote             string
	tasks                   float64
	recordBytes             float64
	// mismatch is the first walked outcome that differs from the twin's
	// exchange, or a worker-count divergence.
	mismatch error
}

func (t *twinResult) coverage() float64 {
	if t.exchanged == 0 {
		return 0
	}
	return t.walked / t.exchanged
}

// runTwins drives two fresh twins of the served network with the same
// rounds: one exchanges (through an ExchangeRecorder, as the gateway
// handler does), the other is walked layer by layer. Round 0 is the cold
// warm-up and is not counted; twinRounds rounds are.
func runTwins(w workload, in inputs) (*twinResult, error) {
	x, err := w.network(w.workers)
	if err != nil {
		return nil, err
	}
	rec, err := core.NewExchangeRecorder(x)
	if err != nil {
		return nil, err
	}
	wk, err := newWalker(w)
	if err != nil {
		return nil, err
	}
	sched := x.Schedule()
	active := w.activeByFrame(sched)
	tr := &twinResult{period: x.Config().Period}
	var times []float64 // per counted round, for the speedup twin
	var digests [][]nodeOut
	for idx := uint64(0); ; idx++ {
		payload, bits := in.payload(idx), in.uplinkAll(idx, len(w.nodes))
		t0 := time.Now()
		frames, err := exchangeRound(rec, sched != nil, payload, bits)
		ex := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("twin round %d: %w", idx, err)
		}
		var walked time.Duration
		for g, fr := range frames {
			d, err := wk.frame(payload, bits, active[g], fr.Nodes)
			if err != nil {
				tr.mismatch = fmt.Errorf("walk round %d frame %d: %w", idx, g, err)
				return tr, nil
			}
			walked += d
		}
		if idx <= twinSpeedupRounds {
			digests = append(digests, digestFrames(frames))
		}
		if idx == 0 {
			wk.t = layerTimes{}
			continue
		}
		tr.rounds++
		tr.exchange.addDur(ex)
		tr.orchestration.addDur(ex - walked)
		tr.exchanged += float64(ex) / 1e6
		tr.walked += float64(walked) / 1e6
		times = append(times, float64(ex)/1e6)
		if tr.rounds == twinRounds {
			break
		}
	}
	tr.layers = wk.t

	var full, spec bytes.Buffer
	r := rec.Record()
	if err := trace.WriteExchange(&full, r); err != nil {
		return nil, err
	}
	empty := *r
	empty.Rounds = nil
	if err := trace.WriteExchange(&spec, &empty); err != nil {
		return nil, err
	}
	tr.recordBytes = float64(full.Len()-spec.Len()) / float64(len(r.Rounds))

	if err := tr.measureSpeedup(w, in, times, digests); err != nil {
		return nil, err
	}
	return tr, tr.countTasks(w, in)
}

func digestFrames(frames []*core.ExchangeResult) []nodeOut {
	var out []nodeOut
	for _, f := range frames {
		out = append(out, digestNodes(f.Nodes)...)
	}
	return out
}

// measureSpeedup times a workers=1 twin on the first rounds and divides by
// the served width's time on the same rounds; its outcomes must match. A
// workload served at one worker has nothing to compare: speedup 1.
func (tr *twinResult) measureSpeedup(w workload, in inputs, times []float64, digests [][]nodeOut) error {
	if w.workers == 1 {
		tr.speedup, tr.speedupNote = 1, "served at workers=1"
		return nil
	}
	x1, err := w.network(1)
	if err != nil {
		return err
	}
	var one, served dist
	for idx := 0; idx < len(digests); idx++ {
		payload, bits := in.payload(uint64(idx)), in.uplinkAll(uint64(idx), len(w.nodes))
		t0 := time.Now()
		frames, err := exchangeRound(x1, x1.Schedule() != nil, payload, bits)
		el := time.Since(t0)
		if err != nil {
			return err
		}
		for i, got := range digestFrames(frames) {
			if d := diffNode(digests[idx][i], got); d != "" && tr.mismatch == nil {
				tr.mismatch = fmt.Errorf("round %d node %d: workers=1 differs from workers=%d: %s", idx, i, w.workers, d)
			}
		}
		if idx > 0 {
			one.addDur(el)
			served.add(times[idx-1])
		}
	}
	tr.speedup = one.quantile(50) / served.quantile(50)
	tr.speedupNote = fmt.Sprintf("median exchange %.2f ms at workers=1 over %.2f ms at workers=%d, %d rounds",
		one.quantile(50), served.quantile(50), w.workers, one.n())
	return nil
}

// countTasks reads the pool's completed-task counter on a metrics-enabled
// twin. Metrics make every exchange also build the telemetry-only
// range-Doppler map, one pool task per range bin, which is subtracted.
func (tr *twinResult) countTasks(w workload, in inputs) error {
	m := telemetry.New()
	xm, err := w.network(w.workers, core.WithMetrics(m))
	if err != nil {
		return err
	}
	var base int64
	for idx := uint64(0); idx <= taskRounds; idx++ {
		if _, err := exchangeRound(xm, xm.Schedule() != nil, in.payload(idx), in.uplinkAll(idx, len(w.nodes))); err != nil {
			return err
		}
		if idx == 0 {
			base = m.Snapshot().Counters["parallel.tasks_completed"]
		}
	}
	calls := float64(taskRounds * w.frames())
	done := float64(m.Snapshot().Counters["parallel.tasks_completed"] - base)
	tr.tasks = done/calls - float64(xm.Radar().Config().RangeBins)
	return nil
}
