// Package radar implements the BiScatter radar-side receive pipeline (§3.3):
// dechirped IF synthesis for a scene of clutter and modulating tags, range
// FFTs, the IF-correction algorithm that aligns range profiles across
// varying CSSK chirp slopes (Fig. 7), background subtraction, range-Doppler
// processing, matched-filter tag detection with centimeter-level range
// refinement, and slow-time uplink demodulation.
package radar

import (
	"context"
	"fmt"
	"math"

	"biscatter/internal/channel"
	"biscatter/internal/dsp"
	"biscatter/internal/fault"
	"biscatter/internal/fmcw"
	"biscatter/internal/parallel"
	"biscatter/internal/telemetry"
)

// Telemetry stage names for the radar pipeline. Each stage records its
// per-unit durations into the histogram named "<stage>.seconds" (per chirp
// for synthesis / range FFT / IF correction, per call for the Doppler FFT
// and the per-tone matched-filter scan). See DESIGN.md "Telemetry".
const (
	StageSynthesis     = "radar.synthesis"
	StageRangeFFT      = "radar.range_fft"
	StageIFCorrection  = "radar.if_correction"
	StageDopplerFFT    = "radar.doppler_fft"
	StageMatchedFilter = "radar.matched_filter"
)

// Telemetry gauge names of the tag search (DetectTags), set per found tag.
const (
	GaugeDetectionSNR = "radar.detection.snr_db"
	GaugeDetectionPSL = "radar.detection.psl_db"
)

// AbsorptiveResidualDB is the residual reflection of the tag in absorptive
// mode relative to reflective mode. The non-reflective switch terminates the
// second antenna into 50 Ω, but a small structural reflection remains.
const AbsorptiveResidualDB = -20.0

// Config parameterizes the radar receiver.
type Config struct {
	// Chirp carries the base waveform parameters (f0, B, fs); per-chirp
	// durations come from the frame.
	Chirp fmcw.ChirpParams
	// Link is the budget used to scale echo and noise powers.
	Link channel.Link
	// NFFT is the size of RawRangeProfile's zero-padded range FFT, the
	// uncorrected Fig. 7(a) view; default 4096. The IF correction evaluates
	// each chirp's spectrum on the common grid directly and does not use it.
	NFFT int
	// RangeBins is the size of the common range grid after IF correction;
	// default 512.
	RangeBins int
	// MaxRange is the extent of the common range grid in meters. It must
	// not exceed the unambiguous range of the steepest chirp in a frame
	// (CorrectedMatrixContext fails otherwise); default is that bound.
	MaxRange float64
	// Seed seeds the receiver noise.
	Seed int64
	// Workers sizes the worker pool for per-chirp and per-bin processing;
	// non-positive selects GOMAXPROCS. Results are byte-identical for any
	// worker count.
	Workers int
	// Metrics receives per-stage pipeline telemetry (spans, detection
	// gauges, pool counters); nil disables collection at near-zero cost.
	// Telemetry never influences processing results.
	Metrics *telemetry.Metrics
}

// Radar is the receive-side processor.
//
// A Radar owns per-frame scratch buffers that are reused across calls (see
// the ownership notes on ObserveContext and CorrectedMatrixContext), so a
// single Radar must not process two frames concurrently — which was already
// the contract, since the receiver noise comes from one seeded stream.
type Radar struct {
	cfg   Config
	noise *channel.Noise
	plan  *dsp.FFTPlan
	pool  *parallel.Pool
	tel   radarTel

	// scr holds the frame-shaped buffers the hot pipeline reuses: scene
	// scatterers, per-chirp echo terms, the capture's IF rows, the
	// corrected matrix rows and its range grid, and the per-worker
	// transform rows. Rows grow to the largest frame seen and are never
	// shrunk, so steady-state frames allocate nothing.
	scr radarScratch
}

// scatterer is one point reflector in the synthesized scene: static clutter
// or a (modulating) tag echo.
type scatterer struct {
	rng float64
	vel float64
	amp float64
	tag int // -1 for clutter, else index into scene.Tags
	// static is the scatterer's index into the phasor cache's ranges, or -1
	// when its phasors are computed per chirp (see phasorCache).
	static int
}

// synthBlock is how many IF samples ObserveContext sums on the stack at a
// time before adding them onto the noise in the row.
const synthBlock = 128

// echoTerm is one scatterer's echo in one chirp: its amplitude, and either
// its index into the chirp's phasor tables or, for a moving scatterer (static
// -1), its running phase.
type echoTerm struct {
	amp, ph, dphi float64
	static        int
}

// radarScratch is the Radar's reusable per-frame buffer set.
type radarScratch struct {
	scats  []scatterer
	terms  [][]echoTerm
	ifRows [][]complex128
	cmRows [][]complex128
	grid   []float64
	// cwork[g] and fwork[g] are worker g's rows in the parallel loops: the
	// chirp-z and slow-time FFT work buffers, and the signature scan's
	// column.
	cwork [][]complex128
	fwork [][]float64
	// velCol, velWin and velMags back EstimateVelocity's zero-padded
	// column, its window and its spectrum.
	velCol  []complex128
	velWin  []float64
	velMags []float64
	// coeffs holds the per-tone Goertzel constants of the batched signature
	// scan (SignatureProfilesInto).
	coeffs []dsp.GoertzelCoeff
	// det backs the joint tag search (DetectTags).
	det detectScratch
	// wins caches the per-duration Hann windows of the range transforms. A
	// CSSK frame reuses a few dozen distinct chirp durations (one per
	// constellation point), so the window samples and their running sum are
	// computed once per duration instead of once per chirp.
	wins map[float64]*hannTable
	// phasors caches the static scatterers' unit phasor tables, and
	// chirpPh[i] holds the tables chirp i of the current frame reads.
	phasors phasorCache
	chirpPh [][][]complex128
	// czPlans records the shared chirp-z plans the IF correction has used,
	// and corr[i] holds the plan and window chirp i of the current frame
	// reads.
	czPlans map[chirpZKey]*dsp.ChirpZPlan
	corr    []chirpCorr
}

// chirpCorr is what the IF correction of one chirp reads: its chirp-z plan
// (nil for an empty row) and its Hann window.
type chirpCorr struct {
	plan *dsp.ChirpZPlan
	win  *hannTable
}

// chirpZKey identifies one chirp's IF-correction plan within a radar, whose
// RangeBins is fixed: the row length and the grid's frequency spacing.
type chirpZKey struct {
	m     int
	delta float64
}

// detectScratch is the joint tag search's buffer set: the active tones,
// their signature rows (summed per tag in place), each tag's signature row,
// bin ownership, median sort scratch and the per-tag outputs.
type detectScratch struct {
	freqs []float64
	rows  [][]float64
	profs [][]float64
	owner []int
	med   []float64
	dets  []Detection
	diags []DetectionDiag
	errs  []error
}

// phasorCache holds the unit phasor sequences exp(j·ph_k) of the current
// scene's static scatterers, one table per (chirp parameters, range). A
// scatterer that does not move contributes the same sequence to every chirp
// of one CSSK duration, in every frame, so the synthesis loop scales a
// cached table instead of calling cos and sin per sample. Each table is
// filled by exactly the ph += dphi recurrence the uncached loop runs, so
// the products, and the sums into the IF rows, are bit-identical to it.
//
// The cache is keyed on scene geometry: it holds the tables of one ordered
// set of static ranges, and a scene whose static ranges differ replaces it.
type phasorCache struct {
	ranges []float64
	// tabs maps chirp parameters to one table per entry of ranges, each
	// SamplesPerChirp long.
	tabs map[fmcw.ChirpParams][][]complex128
}

// isStatic reports whether a scatterer may use the phasor cache: it does
// not move, and its range is finite and non-zero, so the range the
// uncached loop derives, rng + vel·chirpStart, is rng itself bit for bit
// whenever chirpStart is finite.
func isStatic(sc scatterer) bool {
	return sc.vel == 0 && sc.rng != 0 && !math.IsInf(sc.rng, 0) && !math.IsNaN(sc.rng)
}

// phaseStart returns the carrier phase of the first IF sample of a chirp
// with parameters p for a scatterer at range rng, and the per-sample phase
// step of its beat tone (Eq. 3).
func (r *Radar) phaseStart(rng float64, p fmcw.ChirpParams) (ph, dphi float64) {
	fIF := p.IFFrequency(rng)
	dphi = 2 * math.Pi * fIF / r.cfg.Chirp.SampleRate
	return geomPhase(rng, r.cfg.Chirp.StartFrequency), dphi
}

// phasorsFor returns the cached tables of the current static ranges under
// chirp parameters p, filling them on first use. It writes the cache, so
// only serial code may call it.
func (r *Radar) phasorsFor(p fmcw.ChirpParams) [][]complex128 {
	pc := &r.scr.phasors
	if tabs, ok := pc.tabs[p]; ok {
		return tabs
	}
	if pc.tabs == nil {
		pc.tabs = make(map[fmcw.ChirpParams][][]complex128, 8)
	}
	n := p.SamplesPerChirp()
	tabs := make([][]complex128, len(pc.ranges))
	for j, rng := range pc.ranges {
		t := make([]complex128, n)
		ph, dphi := r.phaseStart(rng, p)
		for k := range t {
			t[k] = complex(math.Cos(ph), math.Sin(ph))
			ph += dphi
		}
		tabs[j] = t
	}
	pc.tabs[p] = tabs
	return tabs
}

// CacheBytes returns the size of the phasor tables the radar holds plus
// that of the chirp-z plans its IF correction has used (shared with every
// radar of the same chirp configuration).
func (r *Radar) CacheBytes() int {
	n := 0
	for _, tabs := range r.scr.phasors.tabs {
		for _, t := range tabs {
			n += 16 * len(t)
		}
	}
	for _, p := range r.scr.czPlans {
		n += p.Bytes()
	}
	return n
}

// WarmPhasors fills the phasor cache for the scene's static scatterers
// under every chirp of frame, exactly as ObserveContext would before
// synthesizing it. A caller that knows every chirp its frames will use can
// warm them once up front, so later frames allocate no tables.
func (r *Radar) WarmPhasors(frame *fmcw.Frame, scene Scene) {
	r.prepareScene(frame, scene)
}

// prepareScene loads the scene's scatterers into the radar's scratch and
// resolves, serially, each chirp's phasor tables into scr.chirpPh, so the
// per-chirp fan-out reads the cache without writing it. A scene whose
// static ranges differ from the cached ones replaces the cache.
func (r *Radar) prepareScene(frame *fmcw.Frame, scene Scene) []scatterer {
	scats := r.scr.scats[:0]
	for _, c := range scene.Clutter {
		scats = append(scats, scatterer{
			rng: c.Range,
			vel: c.Velocity,
			amp: math.Pow(10, r.cfg.Link.EchoPowerDBm(c)/20),
			tag: -1,
		})
	}
	for ti, tg := range scene.Tags {
		scats = append(scats, scatterer{
			rng: tg.Range,
			vel: tg.Velocity,
			amp: math.Pow(10, tg.PowerDBm/20),
			tag: ti,
		})
	}
	r.scr.scats = scats

	// Number the static scatterers. Chirp starts must be finite for their
	// ranges to stay exact (see isStatic); the last chirp starts latest.
	span := float64(len(frame.Chirps)) * frame.Period
	cacheable := !math.IsInf(span, 0) && !math.IsNaN(span)
	pc := &r.scr.phasors
	nStatic := 0
	same := true
	for i := range scats {
		sc := &scats[i]
		sc.static = -1
		if cacheable && isStatic(*sc) {
			same = same && nStatic < len(pc.ranges) && pc.ranges[nStatic] == sc.rng
			sc.static = nStatic
			nStatic++
		}
	}
	if !same || nStatic != len(pc.ranges) {
		// A new geometry replaces the cache rather than adding to it.
		pc.ranges = pc.ranges[:0]
		for _, sc := range scats {
			if sc.static >= 0 {
				pc.ranges = append(pc.ranges, sc.rng)
			}
		}
		clear(pc.tabs)
		clear(r.scr.chirpPh)
	}

	r.scr.chirpPh = dsp.EnsureRows(r.scr.chirpPh, len(frame.Chirps))
	for i, c := range frame.Chirps {
		if i > 0 && c.Params == frame.Chirps[i-1].Params {
			r.scr.chirpPh[i] = r.scr.chirpPh[i-1]
		} else if nStatic > 0 {
			r.scr.chirpPh[i] = r.phasorsFor(c.Params)
		} else {
			r.scr.chirpPh[i] = nil
		}
	}
	return scats
}

// hannTable is one cached range window: the sample values and their
// prefix sums, both produced by exactly the loop the range FFT used to run
// per chirp — same formula, same accumulation order — so windowing and
// normalization stay bit-identical to the uncached path.
type hannTable struct {
	w   []float64
	cum []float64 // cum[k] = Σ_{i<k} w[i]
}

// grow extends the table to n samples of the window spanning span samples.
// Recomputation restarts from zero, so the values are independent of the
// growth history.
func (t *hannTable) grow(span float64, n int) {
	if n <= len(t.w) {
		return
	}
	t.w = dsp.Resize(t.w, n)
	t.cum = dsp.Resize(t.cum, n+1)
	var sum float64
	t.cum[0] = 0
	for k := 0; k < n; k++ {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(k)/span))
		t.w[k] = w
		sum += w
		t.cum[k+1] = sum
	}
}

// hannFor returns the cached window for a chirp duration, grown to cover n
// samples. Building mutates the window map and the table, so only serial
// code may call it: the parallel IF-correction fan-out reads the tables
// prepareCorrection resolved for it.
func (r *Radar) hannFor(duration float64, n int) *hannTable {
	t := r.scr.wins[duration]
	if t == nil {
		if r.scr.wins == nil {
			r.scr.wins = make(map[float64]*hannTable, 8)
		}
		t = &hannTable{}
		r.scr.wins[duration] = t
	}
	t.grow(duration*r.cfg.Chirp.SampleRate, n)
	return t
}

// radarTel holds the radar's pre-resolved telemetry handles so the hot
// per-chirp loops skip registry lookups. The zero value (all nil) is the
// disabled state: nil histograms hand out inert spans that take no clock
// readings.
type radarTel struct {
	synthesis *telemetry.Histogram
	rangeFFT  *telemetry.Histogram
	ifCorr    *telemetry.Histogram
	doppler   *telemetry.Histogram
	matched   *telemetry.Histogram
	detSNR    *telemetry.Gauge
	detPSL    *telemetry.Gauge
}

// newRadarTel resolves the radar's metric handles; a nil registry yields
// the inert zero value.
func newRadarTel(m *telemetry.Metrics) radarTel {
	if m == nil {
		return radarTel{}
	}
	return radarTel{
		synthesis: m.Histogram(StageSynthesis + ".seconds"),
		rangeFFT:  m.Histogram(StageRangeFFT + ".seconds"),
		ifCorr:    m.Histogram(StageIFCorrection + ".seconds"),
		doppler:   m.Histogram(StageDopplerFFT + ".seconds"),
		matched:   m.Histogram(StageMatchedFilter + ".seconds"),
		detSNR:    m.Gauge(GaugeDetectionSNR),
		detPSL:    m.Gauge(GaugeDetectionPSL),
	}
}

// New builds a Radar, applying defaults.
func New(cfg Config) (*Radar, error) {
	if err := cfg.Chirp.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	if cfg.NFFT == 0 {
		cfg.NFFT = 4096
	}
	if !dsp.IsPowerOfTwo(cfg.NFFT) {
		return nil, fmt.Errorf("radar: NFFT %d must be a power of two", cfg.NFFT)
	}
	if cfg.RangeBins == 0 {
		cfg.RangeBins = 512
	}
	if cfg.RangeBins < 8 {
		return nil, fmt.Errorf("radar: RangeBins %d too small", cfg.RangeBins)
	}
	plan, err := dsp.PlanFor(cfg.NFFT)
	if err != nil {
		return nil, err
	}
	return &Radar{
		cfg:   cfg,
		noise: channel.NewNoise(cfg.Seed),
		plan:  plan,
		pool:  parallel.New(cfg.Workers).Instrument(cfg.Metrics),
		tel:   newRadarTel(cfg.Metrics),
	}, nil
}

// Config returns the radar's configuration with defaults applied.
func (r *Radar) Config() Config { return r.cfg }

// maxRangeFor returns the unambiguous range of a chirp of the given
// duration.
func (r *Radar) maxRangeFor(duration float64) float64 {
	p := r.cfg.Chirp
	p.Duration = duration
	return p.MaxRange()
}

// commonMaxRange returns the extent of the common range grid for a frame:
// the configured MaxRange, or the unambiguous range of the steepest chirp in
// the frame (a grid beyond it would alias in that chirp).
func (r *Radar) commonMaxRange(frame *fmcw.Frame) float64 {
	if r.cfg.MaxRange > 0 {
		return r.cfg.MaxRange
	}
	return r.steepestMaxRange(frame)
}

// steepestMaxRange returns the unambiguous range of the frame's shortest,
// steepest chirp.
func (r *Radar) steepestMaxRange(frame *fmcw.Frame) float64 {
	minDur := math.Inf(1)
	for _, c := range frame.Chirps {
		if c.Params.Duration < minDur {
			minDur = c.Params.Duration
		}
	}
	return r.maxRangeFor(minDur)
}

// TagEcho is a modulating backscatter tag in the radar scene.
type TagEcho struct {
	// Range is the tag distance in meters (at the frame start).
	Range float64
	// Velocity is the tag's radial velocity in m/s (positive = receding).
	Velocity float64
	// States holds the per-chirp switch state (true = reflective); its
	// length must cover the frame.
	States []bool
	// PowerDBm is the echo power in reflective mode at the radar input.
	PowerDBm float64
}

// Scene is everything the radar illuminates during a frame.
type Scene struct {
	// Clutter is the static multipath environment.
	Clutter []channel.Reflector
	// Tags are the modulating backscatter nodes.
	Tags []TagEcho
	// Faults injects deterministic impairments (chirp dropouts, in-band
	// interference) into the IF capture; nil — the default — leaves the
	// synthesis byte-identical to a fault-free observation.
	Faults *fault.RadarInjector
}

// Capture is the raw dechirped IF data for one frame: one complex sample
// vector per chirp (lengths vary with chirp duration).
type Capture struct {
	Frame *fmcw.Frame
	IF    [][]complex128
}

// Observe synthesizes the dechirped IF capture for a frame illuminating the
// scene. Echo amplitudes are absolute (√mW units) and receiver thermal noise
// is added at the link's noise floor over the IF bandwidth.
func (r *Radar) Observe(frame *fmcw.Frame, scene Scene) *Capture {
	cap, _ := r.ObserveContext(context.Background(), frame, scene)
	return cap
}

// ObserveContext is Observe with cooperative cancellation: per-chirp
// synthesis fans out across the radar's worker pool and stops early when
// ctx is done, returning ctx.Err(). The receiver noise is drawn serially
// from the radar's single seeded source in chirp order before the fan-out,
// so the capture is bit-identical for any worker count — and to the former
// fully-serial implementation.
//
// Ownership: the capture's IF rows are radar-owned scratch, valid until the
// next Observe/ObserveContext call on the same Radar. Callers that keep a
// capture across frames must copy the rows.
func (r *Radar) ObserveContext(ctx context.Context, frame *fmcw.Frame, scene Scene) (*Capture, error) {
	nChirps := len(frame.Chirps)
	r.scr.ifRows = dsp.EnsureRows(r.scr.ifRows, nChirps)
	cap := &Capture{Frame: frame, IF: r.scr.ifRows[:nChirps]}
	noiseSigma := math.Pow(10, channel.ThermalNoiseDBm(r.cfg.Chirp.SampleRate, r.cfg.Link.RadarNoiseFigureDB)/20)

	scats := r.prepareScene(frame, scene)

	// Draw each chirp's receiver noise into its IF row serially, in chirp
	// order, so the noise stream is consumed identically for any worker
	// count. The rows persist across frames; AddComplex accumulates onto
	// its argument, so each row is cleared before the fresh draw.
	for i, c := range frame.Chirps {
		buf := dsp.Resize(cap.IF[i], c.Params.SamplesPerChirp())
		clear(buf)
		r.noise.AddComplex(buf, noiseSigma)
		cap.IF[i] = buf
	}

	residual := math.Pow(10, AbsorptiveResidualDB/20)
	r.scr.terms = dsp.EnsureRows(r.scr.terms, nChirps)
	err := r.pool.ForContext(ctx, nChirps, func(i int) error {
		sp := r.tel.synthesis.Span()
		defer sp.End()
		c := frame.Chirps[i]
		buf := cap.IF[i]
		chirpStart := float64(i) * frame.Period
		// A TX dropout silences the echo (entirely, or beyond a clipped
		// prefix) while the receiver noise stays untouched.
		keep := scene.Faults.EchoSamples(i, len(buf))
		terms := dsp.Resize(r.scr.terms[i], len(scats))
		for j, sc := range scats {
			t := echoTerm{amp: sc.amp, static: sc.static}
			if sc.tag >= 0 {
				st := scene.Tags[sc.tag].States
				if i < len(st) && !st[i] {
					t.amp *= residual
				}
			}
			if sc.static < 0 {
				// Range at this chirp's start: moving scatterers migrate
				// across the frame and accrue the Doppler phase progression.
				t.ph, t.dphi = r.phaseStart(sc.rng+sc.vel*chirpStart, c.Params)
			}
			terms[j] = t
		}
		r.scr.terms[i] = terms
		// Echoes are summed in blocks on the stack, scatterer by scatterer
		// in scene order from zero, and the noise is added last: per
		// sample, the order of the former per-scatterer passes over a
		// cleared row, so every sample keeps its bits.
		tabs := r.scr.chirpPh[i]
		var block [synthBlock]complex128
		for lo := 0; lo < keep; lo += synthBlock {
			echo := block[:min(synthBlock, keep-lo)]
			clear(echo)
			for j := range terms {
				t := &terms[j]
				if t.static >= 0 {
					for k, p := range tabs[t.static][lo : lo+len(echo)] {
						echo[k] += complex(t.amp*real(p), t.amp*imag(p))
					}
					continue
				}
				ph := t.ph
				for k := range echo {
					echo[k] += complex(t.amp*math.Cos(ph), t.amp*math.Sin(ph))
					ph += t.dphi
				}
				t.ph = ph
			}
			row := buf[lo : lo+len(echo)]
			for k, e := range echo {
				row[k] = e + row[k]
			}
		}
		scene.Faults.Jam(buf, i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cap, nil
}

// geomPhase is the round-trip carrier phase of a scatterer at range rng.
func geomPhase(rng, f0 float64) float64 {
	return math.Mod(4*math.Pi*f0*rng/fmcw.SpeedOfLight, 2*math.Pi)
}

// rangeSpectrum computes the windowed zero-padded NFFT-point range FFT of
// one chirp's IF samples, normalized by the window's coherent sum. The Hann
// window is evaluated over the chirp's nominal duration rather than its
// integer sample count: the sample count quantizes the window length by up
// to half a sample, which would wobble the window's range-domain width
// differently per CSSK slope and leak strong clutter through background
// subtraction.
func (r *Radar) rangeSpectrum(ifSamples []complex128, duration float64) []complex128 {
	buf := make([]complex128, r.cfg.NFFT)
	n := min(len(ifSamples), r.cfg.NFFT)
	if n == 0 {
		return buf
	}
	t := r.hannFor(duration, n)
	for k, w := range t.w[:n] {
		buf[k] = ifSamples[k] * complex(w, 0)
	}
	r.plan.ForwardPrefix(buf, n)
	if sumW := t.cum[n]; sumW > 0 {
		// Normalize by the window's coherent sum so a unit-amplitude
		// scatterer produces the same peak height regardless of the chirp
		// duration — without this, CSSK's varying chirp lengths amplitude-
		// modulate every range bin and corrupt slow-time processing.
		s := complex(1/sumW, 0)
		for k := range buf {
			buf[k] *= s
		}
	}
	return buf
}

// RawRangeProfile returns the uncorrected magnitude range profile of chirp i
// together with the per-bin ranges implied by that chirp's own slope
// (Eq. 15). Profiles of different-slope chirps are mutually inconsistent —
// the Fig. 7(a) ambiguity.
func (r *Radar) RawRangeProfile(cap *Capture, i int) (mags, ranges []float64) {
	c := cap.Frame.Chirps[i]
	spec := r.rangeSpectrum(cap.IF[i], c.Params.Duration)
	// The IF is complex (IQ receiver), so all NFFT bins are usable and bin
	// NFFT-1 approaches the full unambiguous range rmax.
	full := r.cfg.NFFT
	mags = make([]float64, full)
	ranges = make([]float64, full)
	rmax := r.maxRangeFor(c.Params.Duration)
	for n := 0; n < full; n++ {
		v := spec[n]
		mags[n] = math.Hypot(real(v), imag(v))
		// The FFT spans fs across NFFT bins, and an IF of fs corresponds
		// to rmax at this chirp's slope (Eq. 4), so bin n maps to
		// n/NFFT·rmax (Eq. 15).
		ranges[n] = float64(n) / float64(r.cfg.NFFT) * rmax
	}
	return mags, ranges
}

// CorrectedMatrix applies BiScatter's IF correction: every chirp's complex
// range profile is evaluated directly on the frame's common range grid,
// each grid range converted to an IF frequency at that chirp's own slope,
// so slow-time processing sees aligned profiles despite the varying CSSK
// slopes. It returns nil when CorrectedMatrixContext fails (a MaxRange
// beyond the frame's steepest chirp).
func (r *Radar) CorrectedMatrix(cap *Capture) ([][]complex128, []float64) {
	out, grid, _ := r.CorrectedMatrixContext(context.Background(), cap)
	return out, grid
}

// CorrectedMatrixContext is CorrectedMatrix with cooperative cancellation.
// A range r sits at r/rmax_i cycles per sample in chirp i's IF, so the
// grid's uniform ranges are uniformly spaced frequencies, and row i is the
// windowed chirp's DTFT at exactly those frequencies, normalized by the
// window's coherent sum: one chirp-z transform (dsp.ChirpZPlan) per chirp.
// The DTFT wraps past one cycle per sample, so a grid beyond the steepest
// chirp's unambiguous range would alias; that is an error.
//
// The rows are independent, so they fan out across the worker pool and are
// written by index; the matrix is byte-identical for any worker count. The
// transform's work buffer is the claiming worker's row of the radar's
// scratch, so steady-state frames allocate nothing here.
//
// Ownership: the returned rows and grid are radar-owned scratch, valid
// until the next CorrectedMatrix/CorrectedMatrixContext call on the same
// Radar; callers that keep a matrix or its grid across frames must copy
// them.
func (r *Radar) CorrectedMatrixContext(ctx context.Context, cap *Capture) ([][]complex128, []float64, error) {
	corr, err := r.prepareCorrection(cap.Frame, func(i int) int { return len(cap.IF[i]) })
	if err != nil {
		return nil, nil, err
	}
	grid := dsp.Resize(r.scr.grid, r.cfg.RangeBins)
	r.scr.grid = grid
	r.rangeGridInto(grid, cap.Frame)
	r.scr.cmRows = dsp.EnsureRows(r.scr.cmRows, len(cap.IF))
	out := r.scr.cmRows[:len(cap.IF)]
	w := r.pool.Workers()
	r.scr.cwork = dsp.EnsureRows(r.scr.cwork, w)
	work := r.scr.cwork
	err = r.pool.ForWorkers(ctx, w, len(cap.IF), func(g, i int) error {
		x, c := cap.IF[i], corr[i]
		row := dsp.Resize(out[i], len(grid))
		out[i] = row
		if c.plan == nil { // no samples
			clear(row)
			return nil
		}
		sp := r.tel.rangeFFT.Span()
		buf := dsp.Resize(work[g], c.plan.Size())
		work[g] = buf
		for k, w := range c.win.w[:len(x)] {
			buf[k] = x[k] * complex(w, 0)
		}
		clear(buf[len(x):])
		c.plan.Forward(buf)
		sp.End()
		sp = r.tel.ifCorr.Span()
		defer sp.End()
		scale := 1.0
		if sumW := c.win.cum[len(x)]; sumW > 0 {
			scale = 1 / sumW
		}
		c.plan.Evaluate(row, buf, scale)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, grid, nil
}

// prepareCorrection resolves, serially, the Hann window and the chirp-z
// plan of every chirp of frame for rows of the given lengths, filling the
// radar's caches where they miss, so that the IF-correction fan-out only
// reads. It returns them by chirp, in radar-owned scratch.
func (r *Radar) prepareCorrection(frame *fmcw.Frame, rowLen func(i int) int) ([]chirpCorr, error) {
	maxR := r.commonMaxRange(frame)
	if r.cfg.MaxRange > 0 {
		if rmax := r.steepestMaxRange(frame); maxR > rmax {
			return nil, fmt.Errorf("radar: MaxRange %.4g m exceeds the %.4g m unambiguous range of the frame's steepest chirp", maxR, rmax)
		}
	}
	corr := dsp.Resize(r.scr.corr, len(frame.Chirps))
	r.scr.corr = corr
	for i, c := range frame.Chirps {
		m := rowLen(i)
		if m == 0 {
			corr[i] = chirpCorr{}
			continue
		}
		if i > 0 && c.Params == frame.Chirps[i-1].Params && m == rowLen(i-1) {
			corr[i] = corr[i-1]
			continue
		}
		// Grid bin j lies at j·maxR/bins meters, which is j·delta cycles
		// per sample at this chirp's slope.
		key := chirpZKey{m: m, delta: maxR / r.maxRangeFor(c.Params.Duration) / float64(r.cfg.RangeBins)}
		p := r.scr.czPlans[key]
		if p == nil {
			var err error
			if p, err = dsp.ChirpZFor(key.m, r.cfg.RangeBins, key.delta); err != nil {
				return nil, err
			}
			if r.scr.czPlans == nil {
				r.scr.czPlans = make(map[chirpZKey]*dsp.ChirpZPlan, 8)
			}
			r.scr.czPlans[key] = p
		}
		corr[i] = chirpCorr{plan: p, win: r.hannFor(c.Params.Duration, m)}
	}
	return corr, nil
}

// WarmChirpZ fills the radar's window and chirp-z caches for every chirp of
// frame at its nominal sample count, exactly as CorrectedMatrixContext
// would for a capture of that frame. A caller that knows every chirp its
// frames will use can warm them once up front, so later frames build no
// tables.
func (r *Radar) WarmChirpZ(frame *fmcw.Frame) error {
	_, err := r.prepareCorrection(frame, func(i int) int { return frame.Chirps[i].Params.SamplesPerChirp() })
	return err
}

// rangeGridInto writes the common range grid for a frame into dst, which
// has length RangeBins: bin i lies at i/RangeBins of the grid's extent.
func (r *Radar) rangeGridInto(dst []float64, frame *fmcw.Frame) {
	maxR := r.commonMaxRange(frame)
	for i := range dst {
		dst[i] = float64(i) / float64(len(dst)) * maxR
	}
}

// SubtractBackground subtracts the first chirp's corrected profile from
// every row in place and returns the matrix. BiScatter uses the first chirp
// of each frame for background subtraction to remove static multipath
// (§3.3); the modulating tag survives because its amplitude toggles.
func SubtractBackground(matrix [][]complex128) [][]complex128 {
	if len(matrix) == 0 {
		return matrix
	}
	bg := append([]complex128(nil), matrix[0]...)
	for i := range matrix {
		for j := range matrix[i] {
			matrix[i][j] -= bg[j]
		}
	}
	return matrix
}

// RangeDoppler computes the slow-time FFT across chirps for every range bin
// of a corrected matrix, returning magnitudes indexed [doppler][range].
func (r *Radar) RangeDoppler(matrix [][]complex128) [][]float64 {
	sp := r.tel.doppler.Span()
	defer sp.End()
	nChirps := len(matrix)
	if nChirps == 0 {
		return nil
	}
	nBins := len(matrix[0])
	nfft := dsp.NextPowerOfTwo(nChirps)
	plan, err := dsp.PlanFor(nfft)
	if err != nil {
		panic(err) // unreachable: nfft is a power of two
	}
	out := make([][]float64, nfft)
	for d := range out {
		out[d] = make([]float64, nBins)
	}
	w := r.pool.Workers()
	r.scr.cwork = dsp.EnsureRows(r.scr.cwork, w)
	work := r.scr.cwork
	// fn never fails and the context never ends, so the loop cannot either.
	_ = r.pool.ForWorkers(context.Background(), w, nBins, func(g, b int) error {
		col := dsp.Resize(work[g], nfft)
		work[g] = col
		for i := 0; i < nChirps; i++ {
			col[i] = matrix[i][b]
		}
		clear(col[nChirps:])
		plan.ForwardInto(col, col)
		for d := 0; d < nfft; d++ {
			out[d][b] = math.Hypot(real(col[d]), imag(col[d]))
		}
		return nil
	})
	return out
}
