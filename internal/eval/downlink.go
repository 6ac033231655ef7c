package eval

import (
	"errors"
	"fmt"

	"biscatter/internal/cssk"
	"biscatter/internal/delayline"
	"biscatter/internal/fmcw"
	"biscatter/internal/packet"
	"biscatter/internal/tag"
)

// DownlinkSetup parameterizes a standalone downlink BER measurement — the
// engine behind Figs. 12, 13, 14 and 17.
type DownlinkSetup struct {
	// Bandwidth is the chirp bandwidth B in Hz.
	Bandwidth float64
	// DeltaL is the delay-line length difference in meters; defaults to
	// the paper's 45-inch pair.
	DeltaL float64
	// SymbolBits is the CSSK symbol size.
	SymbolBits int
	// CenterFrequency is the band center used for ΔT calibration.
	CenterFrequency float64
	// Method selects the tag's spectral estimator.
	Method tag.Method
	// SlopeJitter is the fractional chirp-slope jitter of the generator.
	SlopeJitter float64
}

// downlinkPayloadBytes sizes the per-frame payload of a BER measurement.
const downlinkPayloadBytes = 8

// downlinkPeriod is the chirp period; the paper fixes 120 µs.
const downlinkPeriod = 120e-6

func (s DownlinkSetup) withDefaults() DownlinkSetup {
	if s.Bandwidth == 0 {
		s.Bandwidth = 1e9
	}
	if s.DeltaL == 0 {
		s.DeltaL = delayline.CoaxDeltaL
	}
	if s.SymbolBits == 0 {
		s.SymbolBits = 5
	}
	if s.CenterFrequency == 0 {
		s.CenterFrequency = 9e9 + s.Bandwidth/2
	}
	return s
}

// ErrCapacity means the requested symbol size does not fit the beat range
// at the configured spacing (Eq. 13) — a structural, not statistical,
// outcome.
var ErrCapacity = errors.New("eval: symbol size exceeds CSSK capacity")

// downlinkRig bundles the instantiated components of one setup.
type downlinkRig struct {
	alphabet *cssk.Alphabet
	pkt      packet.Config
	builder  *fmcw.FrameBuilder
	fe       *tag.FrontEnd
	dec      *tag.Decoder
}

// newDownlinkRig builds the components. Seed separates noise processes
// across sweep points.
func newDownlinkRig(s DownlinkSetup, seed int64) (*downlinkRig, error) {
	s = s.withDefaults()
	pair, err := delayline.NewCoaxPair(s.DeltaL, delayline.CoaxVelocityFactor)
	if err != nil {
		return nil, err
	}
	cal := delayline.FromPair(pair, s.CenterFrequency)
	alphabet, err := cssk.NewAlphabet(cssk.Config{
		Bandwidth:        s.Bandwidth,
		Period:           downlinkPeriod,
		MinChirpDuration: cssk.ChirpFloor,
		DeltaT:           cal.EffectiveDeltaT,
		MinBeatSpacing:   cssk.BeatSpacing,
		SymbolBits:       s.SymbolBits,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCapacity, err)
	}
	fe, err := tag.NewFrontEnd(pair, tag.ADCRate, s.CenterFrequency, seed)
	if err != nil {
		return nil, err
	}
	fe.SlopeJitter = s.SlopeJitter
	dec, err := tag.NewDecoder(alphabet, tag.ADCRate)
	if err != nil {
		return nil, err
	}
	dec.Method = s.Method
	base := fmcw.ChirpParams{
		StartFrequency: s.CenterFrequency - s.Bandwidth/2,
		Bandwidth:      s.Bandwidth,
		Duration:       60e-6,
		SampleRate:     4e6,
	}
	builder, err := fmcw.NewFrameBuilder(base, downlinkPeriod)
	if err != nil {
		return nil, err
	}
	return &downlinkRig{
		alphabet: alphabet,
		pkt:      packet.Config{Alphabet: alphabet, HeaderLen: 8, SyncLen: 2},
		builder:  builder,
		fe:       fe,
		dec:      dec,
	}, nil
}

// measureFrame transmits one frame at the given SNR and counts data-symbol
// bit errors. A frame whose preamble is lost counts every data bit as a coin
// flip (half wrong), matching how a receiver experiences total loss.
func (r *downlinkRig) measureFrame(snrDB float64, trial int, c *BERCounter) {
	payload := make([]byte, downlinkPayloadBytes)
	for i := range payload {
		payload[i] = byte(trial*31 + i*7 + 13)
	}
	sent, err := r.pkt.Encode(payload)
	if err != nil {
		return
	}
	durs := make([]float64, len(sent))
	for i, s := range sent {
		durs[i] = s.Duration
	}
	frame, err := r.builder.Build(durs)
	if err != nil {
		return
	}
	x := r.fe.CaptureFrame(frame, snrDB)
	got, _, err := r.dec.DecodeFrame(x)

	bitsPerSymbol := r.alphabet.SymbolBits()
	dataBits := 0
	for _, s := range sent {
		if s.Kind == cssk.KindData {
			dataBits += bitsPerSymbol
		}
	}
	// Align through the sync search, exactly as a receiver would: the
	// decoded stream can be shifted by a chirp when the capture alignment
	// locks one period early or late, and a positional comparison would
	// then mis-score the entire frame.
	gotStart, ok := r.pkt.FindPayloadStart(got)
	if err != nil || !ok {
		c.Add(dataBits/2, dataBits)
		return
	}
	sentStart := r.pkt.HeaderLen + r.pkt.SyncLen
	mask := uint32(1)<<bitsPerSymbol - 1
	for i := sentStart; i < len(sent); i++ {
		s := sent[i]
		if s.Kind != cssk.KindData {
			continue
		}
		vs, verr := r.alphabet.ValueForSymbol(s)
		if verr != nil {
			continue
		}
		gi := gotStart + (i - sentStart)
		var vg uint32
		if gi < len(got) && got[gi].Kind == cssk.KindData {
			vg, _ = r.alphabet.ValueForSymbol(got[gi])
		} else {
			vg = ^vs & mask // control symbol in a data slot: all bits wrong
		}
		d := vs ^ vg
		errs := 0
		for d != 0 {
			d &= d - 1
			errs++
		}
		c.Add(errs, bitsPerSymbol)
	}
}

// DownlinkBER measures the downlink BER of a setup at the given SNR over
// frames frames, parallelized across cores with deterministic per-frame
// seeds.
func DownlinkBER(s DownlinkSetup, snrDB float64, frames int, seed int64) (*BERCounter, error) {
	if frames < 1 {
		return nil, fmt.Errorf("eval: frames %d must be positive", frames)
	}
	// Shard frames across workers, each with its own rig (front-end noise
	// state is not concurrency-safe).
	workers := 4
	if frames < workers {
		workers = frames
	}
	type shard struct {
		c   BERCounter
		err error
	}
	per := (frames + workers - 1) / workers
	shards := ParallelMap(workers, func(w int) shard {
		rig, err := newDownlinkRig(s, seed+int64(w)*7919)
		if err != nil {
			return shard{err: err}
		}
		var c BERCounter
		for t := w * per; t < (w+1)*per && t < frames; t++ {
			rig.measureFrame(snrDB, t, &c)
		}
		return shard{c: c}
	})
	total := &BERCounter{}
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
		total.Add(sh.c.Errors, sh.c.Total)
	}
	return total, nil
}
