package eval

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"biscatter/internal/baseline"
	"biscatter/internal/channel"
	"biscatter/internal/core"
	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/dsp"
	"biscatter/internal/fmcw"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
	"biscatter/internal/telemetry"
)

// Options scales the experiments. The paper collects 10 000 frames per
// setup; the defaults here keep a full run interactive while preserving
// every trend. Raise Frames/Trials for publication-grade statistics.
type Options struct {
	// Frames is the number of frames per BER point.
	Frames int
	// Trials is the number of repetitions per localization/SNR point.
	Trials int
	// Seed roots every random process.
	Seed int64
	// Workers bounds the sweep-point fan-out; non-positive selects all
	// cores. Every sweep point carries its own seed, so the rendered
	// tables are identical for any worker count.
	Workers int
	// Metrics, when non-nil, aggregates pipeline telemetry across every
	// network the experiments build (the registry is concurrency-safe, so
	// parallel sweep points share it). Nil disables collection.
	Metrics *telemetry.Metrics
	// Tracer, when non-nil, collects exchange span trees from every
	// network the experiments build. The collector is bounded and
	// concurrency-safe; nil disables tracing entirely.
	Tracer *telemetry.Tracer
}

func (o Options) withDefaults() Options {
	if o.Frames == 0 {
		o.Frames = 40
	}
	if o.Trials == 0 {
		o.Trials = 8
	}
	return o
}

// Experiment runs one registered experiment.
type Experiment func(Options) (*Result, error)

// Registry maps experiment IDs to implementations, in the paper's order.
var Registry = []struct {
	ID  string
	Run Experiment
}{
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig10_11", Fig10And11},
	{"tab1", Table1},
	{"power", Power},
	{"rate", DataRate},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"ablation", Ablations},
	{"ext", Extensions},
	{"scenarios", Scenarios},
	{"recovery", Recovery},
	{"fleet", Fleet},
	{"distributed", Distributed},
	{"gateway", Gateway},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// Fig5 regenerates Fig. 5: the wired benchmark of beat frequency Δf versus
// chirp duration, validating Eq. 11's linear relationship with 1/T_chirp.
func Fig5(o Options) (*Result, error) {
	o = o.withDefaults()
	pair := delayline.PaperCoaxPair()
	const fc = 9.5e9
	const bw = 1e9
	const period = 250e-6 // long enough for the 200 µs chirps of Fig. 5
	fe, err := tag.NewFrontEnd(pair, tag.ADCRate, fc, o.Seed)
	if err != nil {
		return nil, err
	}
	base := fmcw.ChirpParams{StartFrequency: fc - bw/2, Bandwidth: bw, Duration: 60e-6, SampleRate: 4e6}
	builder, err := fmcw.NewFrameBuilder(base, period)
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title:   "Fig. 5 — beat frequency vs chirp duration (wired, B=1 GHz, ΔL=45 in)",
		Columns: []string{"T_chirp (µs)", "1/T (kHz)", "measured Δf (kHz)", "Eq. 11 Δf (kHz)", "error (%)"},
	}
	var sumXY, sumXX float64
	for tc := 20e-6; tc <= 200e-6+1e-9; tc += 20e-6 {
		frame, err := builder.BuildUniform(4, tc)
		if err != nil {
			return nil, err
		}
		x := fe.CaptureFrame(frame, 60)
		n := int(tc * fe.SampleRate)
		want := pair.ExpectedBeat(bw/tc, fc)
		// Dense periodogram scan around the expectation (±30%).
		bestF, bestP := want, -1.0
		for f := want * 0.7; f <= want*1.3; f += want / 2000 {
			if p := dsp.RealToneEnergy(x[:n], f, fe.SampleRate); p > bestP {
				bestP, bestF = p, f
			}
		}
		eq11 := delayline.BeatFromEquation11(bw, tc, pair.DeltaLength(), delayline.CoaxVelocityFactor)
		tbl.AddRow(
			fmt.Sprintf("%.0f", tc*1e6),
			fmt.Sprintf("%.1f", 1e-3/tc),
			fmt.Sprintf("%.2f", bestF/1e3),
			fmt.Sprintf("%.2f", eq11/1e3),
			fmt.Sprintf("%.2f", 100*(bestF-eq11)/eq11),
		)
		sumXY += (1 / tc) * bestF
		sumXX += (1 / tc) * (1 / tc)
	}
	slope := sumXY / sumXX
	ideal := bw * pair.DeltaLength() / (delayline.CoaxVelocityFactor * 299792458.0)
	res := &Result{
		ID:          "fig5",
		Description: "Δf vs T_chirp is linear in 1/T_chirp (Eq. 11 validation)",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fitted line slope B·ΔL/(k·c): measured %.4g, nominal %.4g (%.2f%% deviation — the paper's one-time k calibration absorbs this)",
			slope, ideal, 100*(slope-ideal)/ideal))
	return res, nil
}

// Fig6 regenerates Fig. 6: the effect of FFT window size and alignment on
// the tag's beat-frequency estimate.
func Fig6(o Options) (*Result, error) {
	o = o.withDefaults()
	pair := delayline.PaperCoaxPair()
	const fc = 9.5e9
	const bw = 1e9
	const period = 120e-6
	const tc = 60e-6
	fe, err := tag.NewFrontEnd(pair, tag.ADCRate, fc, o.Seed+1)
	if err != nil {
		return nil, err
	}
	base := fmcw.ChirpParams{StartFrequency: fc - bw/2, Bandwidth: bw, Duration: tc, SampleRate: 4e6}
	builder, err := fmcw.NewFrameBuilder(base, period)
	if err != nil {
		return nil, err
	}
	frame, err := builder.BuildUniform(8, tc)
	if err != nil {
		return nil, err
	}
	x := fe.CaptureFrame(frame, 40)
	fs := fe.SampleRate
	truth := pair.ExpectedBeat(bw/tc, fc)

	estimate := func(start, length int) float64 {
		if start < 0 {
			start = 0
		}
		if start+length > len(x) {
			length = len(x) - start
		}
		m := dsp.NextPowerOfTwo(length)
		plan, err := dsp.RealPlanFor(m)
		if err != nil {
			return math.NaN()
		}
		win := make([]float64, m)
		copy(win, x[start:start+length])
		dsp.ApplyWindow(win[:length], dsp.Hann(length))
		spec := make([]complex128, plan.SpectrumLen())
		plan.ForwardInto(spec, win)
		mags := make([]float64, len(spec))
		dsp.MagnitudesInto(mags, spec)
		idx, _ := dsp.MaxIndexRange(mags, 1, m/2)
		delta, _ := dsp.ParabolicPeak(mags, idx)
		return (float64(idx) + delta) * fs / float64(m)
	}
	pSamples := int(period * fs)
	cSamples := int(tc * fs)
	cases := []struct {
		name string
		est  float64
	}{
		{"(c) window larger than a chirp (2 periods)", estimate(0, 2*pSamples)},
		{"(d) chirp-long window, misaligned by 40%", estimate(int(0.4*float64(pSamples)), cSamples)},
		{"(e) aligned sub-chirp window", estimate(0, cSamples)},
	}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 6 — window strategy vs beat estimate (truth %.2f kHz)", truth/1e3),
		Columns: []string{"window strategy", "estimate (kHz)", "abs error (kHz)"},
	}
	for _, c := range cases {
		tbl.AddRow(c.name, fmt.Sprintf("%.2f", c.est/1e3), fmt.Sprintf("%.2f", math.Abs(c.est-truth)/1e3))
	}
	res := &Result{
		ID:          "fig6",
		Description: "inter-chirp delays constrain the tag's FFT window size and alignment",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes, "the aligned sub-chirp window recovers the beat; oversized or misaligned windows are biased, matching Fig. 6(c–e)")
	return res, nil
}

// Fig7 regenerates Fig. 7: range-profile ambiguity under varying chirp
// slopes, before and after the IF correction. It doubles as the
// IF-correction ablation.
func Fig7(o Options) (*Result, error) {
	o = o.withDefaults()
	preset := fmcw.Radar9GHz()
	rd, err := radar.New(radar.Config{Chirp: preset.Chirp, Link: channel.DefaultLink(), Seed: o.Seed + 2})
	if err != nil {
		return nil, err
	}
	builder, err := fmcw.NewFrameBuilder(preset.Chirp, preset.DefaultPeriod)
	if err != nil {
		return nil, err
	}
	durs := []float64{24e-6, 40e-6, 56e-6, 72e-6, 88e-6, 96e-6, 32e-6, 64e-6}
	frame, err := builder.Build(durs)
	if err != nil {
		return nil, err
	}
	const dist = 3.0
	scene := radar.Scene{Clutter: []channel.Reflector{{Range: dist, RCSdBsm: 5}}}
	cap := rd.Observe(frame, scene)

	// Naive processing: interpret every chirp's FFT peak with the first
	// chirp's bin→range mapping — what a slope-unaware pipeline would do.
	_, ranges0 := rd.RawRangeProfile(cap, 0)
	naive := make([]float64, len(durs))
	perChirp := make([]float64, len(durs))
	for i := range durs {
		mags, ranges := rd.RawRangeProfile(cap, i)
		idx, _ := dsp.MaxIndexRange(mags, 2, len(mags)/2)
		naive[i] = ranges0[idx]
		perChirp[i] = ranges[idx]
	}
	// Corrected processing.
	cm, grid := rd.CorrectedMatrix(cap)
	corrected := make([]float64, len(durs))
	for i := range cm {
		mags := make([]float64, len(cm[i]))
		for j, v := range cm[i] {
			mags[j] = math.Hypot(real(v), imag(v))
		}
		idx, _ := dsp.MaxIndexRange(mags, 2, len(mags))
		corrected[i] = grid[idx]
	}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 7 — per-chirp range readings of a static reflector at %.1f m", dist),
		Columns: []string{"chirp", "T_chirp (µs)", "naive (m)", "Eq.15 per-slope (m)", "IF-corrected (m)"},
	}
	for i := range durs {
		tbl.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.0f", durs[i]*1e6),
			fmt.Sprintf("%.3f", naive[i]),
			fmt.Sprintf("%.3f", perChirp[i]),
			fmt.Sprintf("%.3f", corrected[i]),
		)
	}
	spread := func(v []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return hi - lo
	}
	res := &Result{
		ID:          "fig7",
		Description: "CSSK slopes scramble naive range profiles; IF correction re-aligns them",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("reading spread: naive %.2f m vs corrected %.3f m (paper Fig. 7a vs 7b)", spread(naive), spread(corrected)))
	return res, nil
}

// Fig10And11 regenerates Figs. 10–11: the PCB meander delay line's S11,
// insertion loss and delay across the 9 GHz band.
func Fig10And11(o Options) (*Result, error) {
	p := delayline.NewMeanderPair()
	tbl := Table{
		Title:   "Figs. 10–11 — meander delay line across 8.5–9.5 GHz (Rogers 3006 model)",
		Columns: []string{"freq (GHz)", "S11 (dB)", "insertion loss (dB)", "ΔT (ns)"},
	}
	for f := 8.5e9; f <= 9.5e9+1e6; f += 100e6 {
		tbl.AddRow(
			fmt.Sprintf("%.1f", f/1e9),
			fmt.Sprintf("%.1f", p.Long.S11DB(f)),
			fmt.Sprintf("%.2f", p.Long.InsertionLossDB(f)),
			fmt.Sprintf("%.3f", p.DeltaT(f)*1e9),
		)
	}
	res := &Result{
		ID:          "fig10_11",
		Description: "delay-line S11 / loss / delay vs frequency",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("differential delay %.2f ns at band center (paper: 1.26 ns); S11 stays below −10 dB", p.NominalDeltaT()*1e9))
	return res, nil
}

// Table1 regenerates Table 1: the system capability comparison, extended
// with the quantitative costs the paper argues (sensing duty cycle and
// handshake overhead).
func Table1(o Options) (*Result, error) {
	tick := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	tbl := Table{
		Title: "Table 1 — state-of-the-art radar backscatter system comparison",
		Columns: []string{"system", "uplink", "downlink", "localization",
			"integrated ISAC", "commodity radar", "sensing duty", "setup frames"},
	}
	for _, sys := range baseline.Table1() {
		c := sys.Capabilities()
		tbl.AddRow(c.Name, tick(c.Uplink), tick(c.Downlink), tick(c.Localization),
			tick(c.IntegratedISAC), tick(c.CommodityRadar),
			fmt.Sprintf("%.0f%%", 100*sys.SensingDutyCycle()),
			fmt.Sprintf("%d", sys.SetupFrames()))
	}
	return &Result{
		ID:          "tab1",
		Description: "only BiScatter combines two-way communication, localization, integration and commodity radars",
		Tables:      []Table{tbl},
	}, nil
}

// Power regenerates the §4.1 power budget.
func Power(o Options) (*Result, error) {
	p := tag.DefaultPowerModel()
	tbl := Table{
		Title:   "§4.1 — tag power budget",
		Columns: []string{"mode / component", "power"},
	}
	names := []string{"rf-switch", "envelope-detector", "mcu-active"}
	bd := p.Breakdown()
	for _, n := range names {
		tbl.AddRow("  "+n, fmt.Sprintf("%.3g mW", bd[n]*1e3))
	}
	tbl.AddRow("continuous comm+sensing", fmt.Sprintf("%.1f mW", p.Continuous()*1e3))
	for _, frac := range []float64{0, 0.1, 0.5} {
		v, err := p.Sequential(frac)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("sequential (%.0f%% downlink)", frac*100),
			fmt.Sprintf("%.4g mW", v*1e3))
	}
	tbl.AddRow("custom IC projection", fmt.Sprintf("%.1f mW", p.CustomIC()*1e3))

	// The §4.1 Goertzel-vs-FFT compute argument, quantified.
	cm := tag.DefaultComputeModel()
	tbl2 := Table{
		Title:   "§4.1 — spectral-analysis workload per decoded symbol",
		Columns: []string{"estimator", "MACs/symbol", "compute power @ 8.3 ksym/s"},
	}
	symRate := 1 / 120e-6
	tbl2.AddRow("goertzel bank (34 candidates)",
		fmt.Sprintf("%d", cm.GoertzelMACs()),
		fmt.Sprintf("%.1f µW", cm.DecodePowerW(cm.GoertzelMACs(), symRate)*1e6))
	tbl2.AddRow("full FFT",
		fmt.Sprintf("%d", cm.FFTMACs()),
		fmt.Sprintf("%.1f µW", cm.DecodePowerW(cm.FFTMACs(), symRate)*1e6))
	tracking := cm
	tracking.Candidates = 4
	tbl2.AddRow("goertzel, tracking mode (4 candidates)",
		fmt.Sprintf("%d", tracking.GoertzelMACs()),
		fmt.Sprintf("%.1f µW", tracking.DecodePowerW(tracking.GoertzelMACs(), symRate)*1e6))

	return &Result{
		ID:          "power",
		Description: "≈48 mW prototype, µW-scale uplink-only mode, ≈4 mW custom IC",
		Tables:      []Table{tbl, tbl2},
	}, nil
}

// DataRate regenerates the data-rate accounting of §3.2.2 and §6 (Eq. 14).
func DataRate(o Options) (*Result, error) {
	tbl := Table{
		Title:   "Eq. 14 — downlink data rate vs symbol size",
		Columns: []string{"bits/symbol", "rate @ T_period=120 µs", "rate @ T_period=100 µs"},
	}
	for bits := 1; bits <= 10; bits++ {
		r120 := float64(bits) / 120e-6
		r100 := float64(bits) / 100e-6
		tbl.AddRow(fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.1f kbit/s", r120/1e3),
			fmt.Sprintf("%.1f kbit/s", r100/1e3))
	}
	pair := delayline.PaperCoaxPair()
	cal := delayline.FromPair(pair, 9.5e9)
	capacityCfg := cssk.Config{
		Bandwidth:        1e9,
		Period:           120e-6,
		MinChirpDuration: cssk.ChirpFloor,
		DeltaT:           cal.EffectiveDeltaT,
		MinBeatSpacing:   cssk.BeatSpacing,
		SymbolBits:       5,
	}
	maxBits := capacityCfg.MaxSymbolBits()
	res := &Result{
		ID:          "rate",
		Description: "50–100 kbit/s downlink, matching RFID/LoRa downlink rates (§6)",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Eq. 12/13 capacity at the default 45-inch / 1 GHz / Δf_int=500 Hz configuration: %d bits/symbol", maxBits),
		"10 bits at 100 µs gives the paper's 0.1 Mbit/s example")
	return res, nil
}

// addBERGrid adds rows rows to tbl: each row's label(row) cells, then cols
// DownlinkBER cells, each measured at the setup, SNR and seed that
// cell(row, col) returns. The row × column grid is one flat fan-out: every
// cell carries its own seed, so the sweep parallelizes without reordering
// the table. A cell whose setup fails reads "over capacity"; the first such
// error in table order is returned, and each figure picks its own policy.
func addBERGrid(tbl *Table, o Options, rows, cols int, label func(row int) []string, cell func(row, col int) (DownlinkSetup, float64, int64)) error {
	type result struct {
		text string
		err  error
	}
	cells := ParallelMapN(o.Workers, rows*cols, func(k int) result {
		s, snr, seed := cell(k/cols, k%cols)
		c, err := DownlinkBER(s, snr, o.Frames, seed)
		if err != nil {
			return result{"over capacity", err}
		}
		return result{text: FormatBER(c)}
	})
	var first error
	for r := 0; r < rows; r++ {
		row := label(r)
		for _, c := range cells[r*cols : (r+1)*cols] {
			if first == nil {
				first = c.err
			}
			row = append(row, c.text)
		}
		tbl.AddRow(row...)
	}
	return first
}

// snrLabel labels a row by its SNR in whole dB.
func snrLabel(snrs []float64) func(int) []string {
	return func(r int) []string { return []string{fmt.Sprintf("%.0f", snrs[r])} }
}

// Fig12 regenerates Fig. 12: downlink BER vs symbol size for three radar
// bandwidths.
func Fig12(o Options) (*Result, error) {
	o = o.withDefaults()
	const snr = 25.0 // close-range operating point
	bands := []float64{250e6, 500e6, 1e9}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 12 — downlink BER vs symbol size (SNR %.0f dB, %d frames/point)", snr, o.Frames),
		Columns: []string{"bits/symbol", "B=250 MHz", "B=500 MHz", "B=1 GHz"},
	}
	// Row r is symbol size r+1 bits; an over-capacity cell reads "over
	// capacity" and the figure goes on.
	_ = addBERGrid(&tbl, o, 8, len(bands), func(r int) []string {
		return []string{fmt.Sprintf("%d", r+1)}
	}, func(r, c int) (DownlinkSetup, float64, int64) {
		return DownlinkSetup{Bandwidth: bands[c], SymbolBits: r + 1}, snr, o.Seed + int64((r+1)*10+c)
	})
	res := &Result{
		ID:          "fig12",
		Description: "larger bandwidth supports larger symbols; BER grows as beat spacing shrinks",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes, "paper shape: BER <1e-3 at 1 GHz / 5 bits, degrading for smaller bandwidths or larger symbols")
	return res, nil
}

// Fig13 regenerates Fig. 13: downlink BER vs radar–tag distance for several
// symbol sizes, with the distance→SNR mapping of the calibrated link budget.
func Fig13(o Options) (*Result, error) {
	o = o.withDefaults()
	link := channel.DefaultLink()
	distances := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8}
	sizes := []int{3, 5, 7}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 13 — downlink BER vs distance (B=1 GHz, %d frames/point)", o.Frames),
		Columns: []string{"distance (m)", "SNR (dB)", "3 bits", "5 bits", "7 bits"},
	}
	_ = addBERGrid(&tbl, o, len(distances), len(sizes), func(r int) []string {
		return []string{fmt.Sprintf("%.1f", distances[r]), fmt.Sprintf("%.1f", link.DownlinkSNRdB(distances[r]))}
	}, func(r, c int) (DownlinkSetup, float64, int64) {
		return DownlinkSetup{SymbolBits: sizes[c]}, link.DownlinkSNRdB(distances[r]), o.Seed + int64(r*10+c)
	})
	res := &Result{
		ID:          "fig13",
		Description: "low BER to 7 m (≈16 dB equivalent SNR); larger symbols degrade first",
		Tables:      []Table{tbl},
	}
	return res, nil
}

// Fig14 regenerates Fig. 14: downlink BER vs SNR for three delay-line length
// differences at a fixed 5-bit symbol size.
func Fig14(o Options) (*Result, error) {
	o = o.withDefaults()
	lengths := []float64{18, 30, 45} // inches
	snrs := []float64{24, 20, 16, 12, 8, 4}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 14 — downlink BER vs SNR per ΔL (5 bits/symbol, %d frames/point)", o.Frames),
		Columns: []string{"SNR (dB)", "ΔL=18 in", "ΔL=30 in", "ΔL=45 in"},
	}
	_ = addBERGrid(&tbl, o, len(snrs), len(lengths), snrLabel(snrs), func(r, c int) (DownlinkSetup, float64, int64) {
		return DownlinkSetup{DeltaL: lengths[c] * delayline.MetersPerInch, SymbolBits: 5}, snrs[r], o.Seed + int64(r*10+c)
	})
	res := &Result{
		ID:          "fig14",
		Description: "longer delay lines widen beat spacing and cut BER at a given SNR",
		Tables:      []Table{tbl},
	}
	return res, nil
}

// Fig15 regenerates Fig. 15: uplink SNR vs distance, both from the analytic
// link budget and as measured by the radar's detection chain.
func Fig15(o Options) (*Result, error) {
	o = o.withDefaults()
	distances := []float64{0.5, 1, 2, 3, 4, 5, 7, 9, 12}
	tbl := Table{
		Title:   "Fig. 15 — uplink SNR vs distance (retro-reflective tag)",
		Columns: []string{"distance (m)", "echo power (dBm)", "budget SNR+PG (dB)", "measured signature SNR (dB)"},
	}
	link := channel.DefaultLink()
	var lastGood float64
	for _, d := range distances {
		measured := math.Inf(-1)
		vals := ParallelMapN(o.Workers, o.Trials, func(t int) float64 {
			// Trials already saturate the pool, so each network runs
			// single-worker; results are identical either way.
			n, err := core.NewNetwork(core.Config{
				Nodes:   []core.NodeConfig{{ID: 1, Range: d}},
				Seed:    o.Seed + int64(t)*131,
				Workers: 1,
				Metrics: o.Metrics,
				Tracer:  o.Tracer,
			})
			if err != nil {
				return math.Inf(-1)
			}
			dets, err := n.Localize(nil, 96)
			if err != nil {
				return math.Inf(-1)
			}
			return dets[0].SNRdB
		})
		var sum float64
		var ok int
		for _, v := range vals {
			if !math.IsInf(v, -1) {
				sum += v
				ok++
			}
		}
		cell := "not detected"
		if ok > 0 {
			measured = sum / float64(ok)
			cell = fmt.Sprintf("%.1f", measured)
			lastGood = d
		}
		pg := channel.ProcessingGainDB(240, 96)
		tbl.AddRow(fmt.Sprintf("%.1f", d),
			fmt.Sprintf("%.1f", link.UplinkRxPowerDBm(d)),
			fmt.Sprintf("%.1f", link.UplinkSNRdB(d, pg)),
			cell)
	}
	res := &Result{
		ID:          "fig15",
		Description: "uplink SNR falls at 40 dB/decade (round-trip d⁻⁴) but retro-reflection keeps the tag detectable at range",
		Tables:      []Table{tbl},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("tag remained detectable out to %.0f m; the end-to-end system range stays downlink-limited at ≈7 m as in §6", lastGood))
	return res, nil
}

// Fig16 regenerates Fig. 16: tag localization accuracy with a fixed slope
// (sensing-only) vs during two-way CSSK communication.
func Fig16(o Options) (*Result, error) {
	o = o.withDefaults()
	distances := []float64{1.0, 2.4, 3.7, 5.2, 7.0}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 16 — localization error (cm), %d trials/point", o.Trials),
		Columns: []string{"distance (m)", "sensing-only mean", "integrated comm mean", "sensing max", "comm max"},
	}
	for di, d := range distances {
		type pair struct{ s, c float64 }
		errsPair := ParallelMapN(o.Workers, o.Trials, func(t int) pair {
			// Trials already saturate the pool, so each network runs
			// single-worker; results are identical either way.
			n, err := core.NewNetwork(core.Config{
				Nodes:   []core.NodeConfig{{ID: 1, Range: d}},
				Seed:    o.Seed + int64(di*100+t),
				Workers: 1,
				Metrics: o.Metrics,
				Tracer:  o.Tracer,
			})
			if err != nil {
				return pair{math.NaN(), math.NaN()}
			}
			sDet, err := n.Localize(nil, 64)
			if err != nil {
				return pair{math.NaN(), math.NaN()}
			}
			frame, err := n.BuildDownlinkFrame(core.RandomPayload(int64(t), 16), 64)
			if err != nil {
				return pair{math.NaN(), math.NaN()}
			}
			cDet, err := n.Localize(frame, 0)
			if err != nil {
				return pair{math.Abs(sDet[0].Range-d) * 100, math.NaN()}
			}
			return pair{math.Abs(sDet[0].Range-d) * 100, math.Abs(cDet[0].Range-d) * 100}
		})
		var sSum, cSum, sMax, cMax float64
		var n int
		for _, p := range errsPair {
			if math.IsNaN(p.s) || math.IsNaN(p.c) {
				continue
			}
			sSum += p.s
			cSum += p.c
			sMax = math.Max(sMax, p.s)
			cMax = math.Max(cMax, p.c)
			n++
		}
		if n == 0 {
			tbl.AddRow(fmt.Sprintf("%.1f", d), "n/a", "n/a", "n/a", "n/a")
			continue
		}
		tbl.AddRow(fmt.Sprintf("%.1f", d),
			fmt.Sprintf("%.1f", sSum/float64(n)),
			fmt.Sprintf("%.1f", cSum/float64(n)),
			fmt.Sprintf("%.1f", sMax),
			fmt.Sprintf("%.1f", cMax))
	}
	res := &Result{
		ID:          "fig16",
		Description: "two-way CSSK communication does not degrade centimeter-level localization",
		Tables:      []Table{tbl},
	}
	return res, nil
}

// Fig17 regenerates Fig. 17: downlink BER vs SNR for the 9 GHz and 24 GHz
// platforms at the same 250 MHz bandwidth. The decoder is carrier-agnostic.
// The 24 GHz platform models the cleaner clock §5.3 credits for its slight
// edge, but neither band has the lower BER at every SNR, so the note names
// the leading band per SNR from the table's own cells.
func Fig17(o Options) (*Result, error) {
	o = o.withDefaults()
	snrs := []float64{24, 20, 16, 12, 8}
	tbl := Table{
		Title:   fmt.Sprintf("Fig. 17 — BER vs SNR across bands (B=250 MHz, 3 bits/symbol, %d frames/point)", o.Frames),
		Columns: []string{"SNR (dB)", "9 GHz", "24 GHz"},
	}
	setups := []DownlinkSetup{
		{Bandwidth: 250e6, SymbolBits: 3, CenterFrequency: 9.125e9, SlopeJitter: 0.004},
		{Bandwidth: 250e6, SymbolBits: 3, CenterFrequency: 24.125e9, SlopeJitter: 0.001},
	}
	// Both platforms run well inside capacity: a failing cell is an error.
	err := addBERGrid(&tbl, o, len(snrs), len(setups), snrLabel(snrs), func(r, c int) (DownlinkSetup, float64, int64) {
		return setups[c], snrs[r], o.Seed + int64(r*10+c)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:          "fig17",
		Description: "comparable BER across bands: the tag's kHz decoding is independent of the carrier",
		Tables:      []Table{tbl},
	}
	var lead [2][]string // SNR labels where each column has the lower BER
	for _, row := range tbl.Rows {
		a, b := berValue(row[1]), berValue(row[2])
		switch {
		case a < b:
			lead[0] = append(lead[0], row[0])
		case b < a:
			lead[1] = append(lead[1], row[0])
		}
	}
	var parts []string
	for c, snrs := range lead {
		if len(snrs) > 0 {
			parts = append(parts, fmt.Sprintf("%s has the lower BER at %s dB", tbl.Columns[c+1], strings.Join(snrs, ", ")))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "the bands tie at every SNR")
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%s (the 24 GHz platform models a cleaner clock: slope jitter %g against %g)",
		strings.Join(parts, "; "), setups[1].SlopeJitter, setups[0].SlopeJitter))
	return res, nil
}

// berValue reads a FormatBER cell back: a zero-error bound "<x" reads as x,
// and an unreadable cell as NaN, which compares as neither lower nor higher.
func berValue(cell string) float64 {
	v, err := strconv.ParseFloat(strings.TrimPrefix(cell, "<"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Ablations quantifies the design choices DESIGN.md calls out: Goertzel vs
// FFT at the tag, the retro-reflector gain, and background subtraction.
func Ablations(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{ID: "ablation", Description: "design-choice ablations"}

	// Goertzel vs FFT decoding at the paper's operating point.
	tbl := Table{
		Title:   fmt.Sprintf("Ablation — tag spectral estimator (5 bits, 16 dB SNR, %d frames)", o.Frames),
		Columns: []string{"method", "BER"},
	}
	for _, m := range []tag.Method{tag.MethodGoertzel, tag.MethodFFT} {
		c, err := DownlinkBER(DownlinkSetup{SymbolBits: 5, Method: m}, 16, o.Frames, o.Seed+int64(m))
		if err != nil {
			return nil, err
		}
		tbl.AddRow(m.String(), FormatBER(c))
	}
	res.Tables = append(res.Tables, tbl)

	// Retro-reflector gain.
	link := channel.DefaultLink()
	flat := link
	flat.TagRetroGainDBi = 0
	tbl2 := Table{
		Title:   "Ablation — Van Atta retro-reflection gain (uplink echo power)",
		Columns: []string{"distance (m)", "with retro (dBm)", "without (dBm)"},
	}
	for _, d := range []float64{1, 3, 5, 7} {
		tbl2.AddRow(fmt.Sprintf("%.0f", d),
			fmt.Sprintf("%.1f", link.UplinkRxPowerDBm(d)),
			fmt.Sprintf("%.1f", flat.UplinkRxPowerDBm(d)))
	}
	res.Tables = append(res.Tables, tbl2)

	// Background subtraction in heavy clutter.
	n, err := core.NewNetwork(core.Config{
		Nodes:   []core.NodeConfig{{ID: 1, Range: 3.7}},
		Seed:    o.Seed + 99,
		Metrics: o.Metrics,
		Tracer:  o.Tracer,
	})
	if err != nil {
		return nil, err
	}
	frame, err := n.BuildSensingFrame(64)
	if err != nil {
		return nil, err
	}
	scene := radar.Scene{Clutter: channel.OfficeClutter()}
	states, err := n.Nodes()[0].Tag.UplinkStates(nil, n.Config().Period, 64)
	if err != nil {
		return nil, err
	}
	scene.Tags = append(scene.Tags, radar.TagEcho{
		Range: 3.7, States: states, PowerDBm: n.Link().UplinkRxPowerDBm(3.7),
	})
	capt := n.Radar().Observe(frame, scene)
	cm, grid := n.Radar().CorrectedMatrix(capt)
	withSub := radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm))
	noSub := radar.MagnitudeMatrix(cm)
	f0 := n.Nodes()[0].Uplink.F0
	detWith, errWith := n.Radar().DetectTag(withSub, grid, f0, n.Config().Period)
	detWithout, errWithout := n.Radar().DetectTag(noSub, grid, f0, n.Config().Period)
	tbl3 := Table{
		Title:   "Ablation — first-chirp background subtraction (tag at 3.7 m in office clutter)",
		Columns: []string{"pipeline", "detected range (m)", "signature SNR (dB)"},
	}
	fmtDet := func(d radar.Detection, err error) []string {
		if err != nil {
			return []string{"not detected", "-"}
		}
		return []string{fmt.Sprintf("%.3f", d.Range), fmt.Sprintf("%.1f", d.SNRdB)}
	}
	tbl3.AddRow(append([]string{"with subtraction"}, fmtDet(detWith, errWith)...)...)
	tbl3.AddRow(append([]string{"without subtraction"}, fmtDet(detWithout, errWithout)...)...)
	res.Tables = append(res.Tables, tbl3)
	res.Notes = append(res.Notes,
		"goertzel is the per-candidate matched filter; the plain FFT-peak classifier collapses at moderate SNR because a single chirp holds only ~5 beat cycles",
		"without background subtraction the strongest 'signature' is static clutter leakage — the detector locks onto a wall, not the tag")
	return res, nil
}
