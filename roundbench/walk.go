package main

import (
	"fmt"
	"math"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/parallel"
	"biscatter/internal/radar"
)

// walker re-runs an exchange's layer calls one by one on a twin network
// built from the same Config and seed, timing each public tag, radar and
// packet function from the outside. Called in exchange order with the same
// arguments, the calls draw the same noise, so the walk decodes exactly
// what the twin's own Exchange decodes. Detection's joint bin assignment is
// core's own code, not a layer call; the walk takes the bins from the
// exchanging twin, and that work stays in core.orchestration_ms.
type walker struct {
	net  *core.Network
	pool *parallel.Pool

	mag    [][]float64
	bg     []float64
	rows   [][]float64
	states [][]bool
	freqs  []float64

	t layerTimes
}

// layerTimes are the walked layers' samples: milliseconds, except the
// deframe and demod timings (microseconds) and the computed sizes.
type layerTimes struct {
	frameBuild, downlink, capture, period, align, symbols, deframe dist
	uplinkStates, observe, corrected, background, signature, demod dist
	captureKB, fftMflop                                            dist
}

func newWalker(w workload) (*walker, error) {
	n, err := w.network(w.workers)
	if err != nil {
		return nil, err
	}
	// The exchange's first decode builds each decoder's tone tables; a
	// decode of an empty capture does only that, drawing no noise.
	for _, node := range n.Nodes() {
		node.Tag.Decoder.DecodeFrame(nil) //nolint:errcheck // too short by design
	}
	return &walker{net: n, pool: parallel.New(w.workers), states: make([][]bool, len(n.Nodes()))}, nil
}

// nodeTimes is one node's downlink layer timings in one frame.
type nodeTimes struct {
	capture, period, align, symbols, deframe time.Duration
	samples                                  int
	// decoded reports that the period was found and the later stages ran.
	decoded bool
	payload []byte
	err     error
}

// frame walks one radar frame. active marks the nodes modulating in it;
// twin holds the exchanging twin's results for the same frame. It returns
// the walked time on the frame's blocking path and reports any outcome that
// differs from the twin's.
func (wk *walker) frame(payload []byte, bits map[int][]bool, active []bool, twin []core.NodeResult) (time.Duration, error) {
	n := wk.net
	cfg := n.Config()
	nodes := n.Nodes()
	minChirps := 0
	for i, b := range bits {
		if active[i] && len(b)*cfg.ChirpsPerBit > minChirps {
			minChirps = len(b) * cfg.ChirpsPerBit
		}
	}
	var walked time.Duration
	lap := func(d *dist, t0 time.Time) {
		el := time.Since(t0)
		d.addDur(el)
		walked += el
	}

	t0 := time.Now()
	frame, err := n.BuildDownlinkFrame(payload, minChirps)
	if err != nil {
		return 0, err
	}
	lap(&wk.t.frameBuild, t0)

	// Downlink, fanned out over the same pool width as the exchange.
	nt := make([]nodeTimes, len(nodes))
	t0 = time.Now()
	wk.pool.For(len(nodes), func(i int) {
		if !active[i] {
			return
		}
		node := nodes[i]
		dec := node.Tag.Decoder
		r := &nt[i]
		t := time.Now()
		x := node.Tag.FrontEnd.CaptureFrame(frame, n.Link().DownlinkSNRdB(node.Range))
		r.capture, t = time.Since(t), time.Now()
		r.samples = len(x)
		per, err := dec.EstimatePeriod(x)
		r.period, t = time.Since(t), time.Now()
		if err != nil {
			r.err = err
			return
		}
		r.decoded = true
		start := dec.AlignChirpStart(x, per)
		r.align, t = time.Since(t), time.Now()
		syms := dec.DecodeSymbols(x, per, start)
		r.symbols, t = time.Since(t), time.Now()
		r.payload, _, r.err = n.Packet().DecodeStats(syms)
		r.deframe = time.Since(t)
	})
	lap(&wk.t.downlink, t0)
	for i, r := range nt {
		if !active[i] {
			continue
		}
		wk.t.capture.addDur(r.capture)
		wk.t.captureKB.add(float64(r.samples) * 8 / 1024)
		wk.t.period.addDur(r.period)
		if r.decoded {
			wk.t.align.addDur(r.align)
			wk.t.symbols.addDur(r.symbols)
			wk.t.deframe.add(float64(r.deframe) / 1e3)
		}
		if err := sameDownlink(twin[i], r.payload, r.err); err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
	}

	// Uplink: the scene every node's switch states paint, then the radar.
	t0 = time.Now()
	scene := radar.Scene{Clutter: cfg.Clutter}
	for i, node := range nodes {
		var st []bool
		if active[i] {
			if st, err = node.Tag.UplinkStatesInto(wk.states[i], bits[i], cfg.Period, len(frame.Chirps)); err != nil {
				return 0, err
			}
		} else {
			st = resizeBools(wk.states[i], len(frame.Chirps))
		}
		wk.states[i] = st
		scene.Tags = append(scene.Tags, radar.TagEcho{Range: node.Range, States: st, PowerDBm: n.Link().UplinkRxPowerDBm(node.Range)})
	}
	lap(&wk.t.uplinkStates, t0)

	rd := n.Radar()
	t0 = time.Now()
	capt := rd.Observe(frame, scene)
	lap(&wk.t.observe, t0)

	t0 = time.Now()
	cm, _ := rd.CorrectedMatrix(capt)
	lap(&wk.t.corrected, t0)
	nfft := float64(rd.Config().NFFT)
	wk.t.fftMflop.add(float64(len(frame.Chirps)) * 5 * nfft * math.Log2(nfft) / 1e6)

	t0 = time.Now()
	wk.mag = radar.MagnitudeMatrixInto(wk.mag, cm)
	matrix, bg := radar.SubtractBackgroundMagInto(wk.mag, wk.bg)
	wk.bg = bg
	lap(&wk.t.background, t0)

	t0 = time.Now()
	wk.freqs = wk.freqs[:0]
	for i, node := range nodes {
		if active[i] {
			wk.freqs = append(wk.freqs, node.Uplink.F0, node.Uplink.F1)
		}
	}
	wk.rows = rd.SignatureProfilesInto(wk.rows, matrix, wk.freqs, cfg.Period)
	lap(&wk.t.signature, t0)

	for i, node := range nodes {
		b := bits[i]
		if !active[i] || len(b) == 0 || twin[i].DetectionErr != nil {
			continue
		}
		t0 = time.Now()
		got, err := rd.DecodeUplinkFSK(matrix, twin[i].Detection.Bin, node.Uplink)
		el := time.Since(t0)
		wk.t.demod.add(float64(el) / 1e3)
		walked += el
		if err == nil && len(got) > len(b) {
			got = got[:len(b)]
		}
		if (err == nil) != (twin[i].UplinkErr == nil) || !equalBits(got, twin[i].UplinkBits) {
			return 0, fmt.Errorf("node %d: walked uplink %v (%v), exchange %v (%v)", i, got, err, twin[i].UplinkBits, twin[i].UplinkErr)
		}
	}
	return walked, nil
}

// sameDownlink compares a walked decode with the exchange's.
func sameDownlink(nr core.NodeResult, payload []byte, err error) error {
	if string(payload) != string(nr.DownlinkPayload) || (err == nil) != (nr.DownlinkErr == nil) {
		return fmt.Errorf("walked downlink %x (%v), exchange %x (%v)", payload, err, nr.DownlinkPayload, nr.DownlinkErr)
	}
	return nil
}

func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}
