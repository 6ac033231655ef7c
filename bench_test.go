package biscatter

// One benchmark per paper table/figure (see DESIGN.md §4 for the index).
// Each bench regenerates its artifact at reduced statistical scale and
// reports the headline metric via b.ReportMetric, so `go test -bench=.`
// doubles as a quick reproduction run. Use cmd/biscatter-sim for full-scale
// regeneration.

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/core"
	"biscatter/internal/delayline"
	"biscatter/internal/eval"
	"biscatter/internal/radar"
	"biscatter/internal/tag"
)

// benchOpts keeps per-iteration cost low; benches measure shape, not
// publication statistics.
var benchOpts = eval.Options{Frames: 10, Trials: 3, Seed: 1}

func runExperiment(b *testing.B, id string) *eval.Result {
	b.Helper()
	run, ok := eval.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res *eval.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// cell parses a numeric table cell ("<1.0e-3" floors count as their bound).
func cell(b *testing.B, res *eval.Result, table, row, col int) float64 {
	b.Helper()
	c := strings.TrimPrefix(res.Tables[table].Rows[row][col], "<")
	c = strings.Fields(c)[0]
	v, err := strconv.ParseFloat(c, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", c, err)
	}
	return v
}

func BenchmarkFig5BeatFrequency(b *testing.B) {
	res := runExperiment(b, "fig5")
	// Report the worst per-point deviation from Eq. 11 (percent).
	worst := 0.0
	for r := range res.Tables[0].Rows {
		worst = math.Max(worst, math.Abs(cell(b, res, 0, r, 4)))
	}
	b.ReportMetric(worst, "max-eq11-error-%")
}

func BenchmarkFig6WindowAlignment(b *testing.B) {
	res := runExperiment(b, "fig6")
	b.ReportMetric(cell(b, res, 0, 2, 2), "aligned-window-error-kHz")
	b.ReportMetric(cell(b, res, 0, 1, 2), "misaligned-window-error-kHz")
}

func BenchmarkFig7IFCorrection(b *testing.B) {
	res := runExperiment(b, "fig7")
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := range res.Tables[0].Rows {
		v := cell(b, res, 0, r, 4)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	b.ReportMetric((hi-lo)*100, "corrected-spread-cm")
}

func BenchmarkFig10n11DelayLine(b *testing.B) {
	res := runExperiment(b, "fig10_11")
	mid := len(res.Tables[0].Rows) / 2
	b.ReportMetric(cell(b, res, 0, mid, 3), "delta-T-ns")
	b.ReportMetric(cell(b, res, 0, mid, 1), "S11-dB")
}

func BenchmarkTable1Capabilities(b *testing.B) {
	res := runExperiment(b, "tab1")
	full := 0.0
	for _, row := range res.Tables[0].Rows {
		all := true
		for _, c := range row[1:6] {
			if c != "yes" {
				all = false
			}
		}
		if all {
			full++
		}
	}
	b.ReportMetric(full, "systems-with-all-capabilities")
}

func BenchmarkPowerBudget(b *testing.B) {
	runExperiment(b, "power")
	p := tag.DefaultPowerModel()
	b.ReportMetric(p.Continuous()*1e3, "continuous-mW")
	b.ReportMetric(p.CustomIC()*1e3, "custom-ic-mW")
}

func BenchmarkDataRate(b *testing.B) {
	runExperiment(b, "rate")
	b.ReportMetric(10.0/100e-6/1e3, "10bit-100us-kbps")
}

func BenchmarkFig12BERvsSymbolSize(b *testing.B) {
	res := runExperiment(b, "fig12")
	// 5 bits at 1 GHz is the paper's headline (<1e-3).
	b.ReportMetric(cell(b, res, 0, 4, 3), "ber-5bit-1GHz")
	b.ReportMetric(cell(b, res, 0, 4, 1), "ber-5bit-250MHz")
}

func BenchmarkFig13BERvsDistance(b *testing.B) {
	res := runExperiment(b, "fig13")
	// 5-bit column at 7 m.
	b.ReportMetric(cell(b, res, 0, 7, 3), "ber-5bit-7m")
	b.ReportMetric(cell(b, res, 0, 7, 1), "snr-7m-dB")
}

func BenchmarkFig14BERvsDeltaL(b *testing.B) {
	res := runExperiment(b, "fig14")
	// At 16 dB: 18-inch vs 45-inch lines.
	b.ReportMetric(cell(b, res, 0, 2, 1), "ber-18in-16dB")
	b.ReportMetric(cell(b, res, 0, 2, 3), "ber-45in-16dB")
}

func BenchmarkFig15UplinkSNR(b *testing.B) {
	res := runExperiment(b, "fig15")
	b.ReportMetric(cell(b, res, 0, 0, 3), "signature-snr-0.5m-dB")
	b.ReportMetric(cell(b, res, 0, 6, 3), "signature-snr-7m-dB")
}

func BenchmarkFig16Localization(b *testing.B) {
	res := runExperiment(b, "fig16")
	var sSum, cSum float64
	n := float64(len(res.Tables[0].Rows))
	for r := range res.Tables[0].Rows {
		sSum += cell(b, res, 0, r, 1)
		cSum += cell(b, res, 0, r, 2)
	}
	b.ReportMetric(sSum/n, "sensing-only-mean-cm")
	b.ReportMetric(cSum/n, "integrated-comm-mean-cm")
}

func BenchmarkFig17CrossBand(b *testing.B) {
	res := runExperiment(b, "fig17")
	b.ReportMetric(cell(b, res, 0, 1, 1), "ber-9GHz-20dB")
	b.ReportMetric(cell(b, res, 0, 1, 2), "ber-24GHz-20dB")
}

func BenchmarkExtensions(b *testing.B) {
	res := runExperiment(b, "ext")
	// MSCK's 4×8 configuration vs CSSK's 41.7 kbit/s baseline.
	b.ReportMetric(cell(b, res, 0, 2, 2), "msck-4x8-kbps")
	b.ReportMetric(cell(b, res, 0, 0, 2), "cssk-5bit-kbps")
}

// Ablation benches: the design choices DESIGN.md §6 calls out.

func BenchmarkAblationGoertzelVsFFT(b *testing.B) {
	var gRate, fRate float64
	for i := 0; i < b.N; i++ {
		g, err := eval.DownlinkBER(eval.DownlinkSetup{SymbolBits: 5, Method: tag.MethodGoertzel}, 16, 10, 8)
		if err != nil {
			b.Fatal(err)
		}
		f, err := eval.DownlinkBER(eval.DownlinkSetup{SymbolBits: 5, Method: tag.MethodFFT}, 16, 10, 8)
		if err != nil {
			b.Fatal(err)
		}
		gRate, fRate = g.FloorRate(), f.FloorRate()
	}
	b.ReportMetric(gRate, "goertzel-ber")
	b.ReportMetric(fRate, "fft-ber")
}

func BenchmarkAblationRetroReflector(b *testing.B) {
	link := channel.DefaultLink()
	flat := link
	flat.TagRetroGainDBi = 0
	var diff float64
	for i := 0; i < b.N; i++ {
		diff = link.UplinkRxPowerDBm(5) - flat.UplinkRxPowerDBm(5)
	}
	b.ReportMetric(diff, "retro-gain-dB")
}

func BenchmarkAblationBackgroundSubtraction(b *testing.B) {
	var withSNR, withoutRange float64
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{
			Nodes: []core.NodeConfig{{ID: 1, Range: 3.7}},
			Seed:  9,
		})
		if err != nil {
			b.Fatal(err)
		}
		frame, err := n.BuildSensingFrame(64)
		if err != nil {
			b.Fatal(err)
		}
		states, err := n.Nodes()[0].Tag.UplinkStates(nil, n.Config().Period, 64)
		if err != nil {
			b.Fatal(err)
		}
		scene := radar.Scene{
			Clutter: channel.OfficeClutter(),
			Tags: []radar.TagEcho{{
				Range: 3.7, States: states,
				PowerDBm: n.Link().UplinkRxPowerDBm(3.7),
			}},
		}
		capt := n.Radar().Observe(frame, scene)
		cm, grid := n.Radar().CorrectedMatrix(capt)
		f0 := n.Nodes()[0].Uplink.F0
		det, err := n.Radar().DetectTag(radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm)), grid, f0, n.Config().Period)
		if err != nil {
			b.Fatal(err)
		}
		withSNR = det.SNRdB
		if det2, err := n.Radar().DetectTag(radar.MagnitudeMatrix(cm), grid, f0, n.Config().Period); err == nil {
			withoutRange = det2.Range
		}
	}
	b.ReportMetric(withSNR, "with-subtraction-snr-dB")
	b.ReportMetric(withoutRange, "without-subtraction-locked-range-m")
}

func BenchmarkAblationSyncTolerance(b *testing.B) {
	// How much of the header can be missed before the packet is lost: wake
	// the tag progressively later into the preamble.
	pair, err := delayline.NewCoaxPair(45*delayline.MetersPerInch, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	_ = pair
	var maxSkip float64
	for i := 0; i < b.N; i++ {
		n, err := core.NewNetwork(core.Config{
			Nodes: []core.NodeConfig{{ID: 1, Range: 2.6}},
			Seed:  10,
		})
		if err != nil {
			b.Fatal(err)
		}
		payload := []byte{0xA5, 0x5A}
		frame, err := n.BuildDownlinkFrame(payload, 0)
		if err != nil {
			b.Fatal(err)
		}
		node := n.Nodes()[0]
		snr := n.Link().DownlinkSNRdB(2.6)
		maxSkip = 0
		for skip := 0.0; skip < 5; skip += 0.5 {
			x := node.Tag.FrontEnd.Capture(frame, snr, skip*n.Config().Period, 0)
			syms, _, err := node.Tag.Decoder.DecodeFrame(x)
			if err != nil {
				break
			}
			if got, _, err := n.Packet().DecodeStats(syms); err != nil || string(got) != string(payload) {
				break
			}
			maxSkip = skip
		}
	}
	b.ReportMetric(maxSkip, "max-header-chirps-skippable")
}

// Micro-benchmarks of the hot paths behind the experiments.

func BenchmarkEndToEndExchange(b *testing.B) {
	n, err := core.NewNetwork(core.Config{
		Nodes: []core.NodeConfig{{ID: 1, Range: 2.6}},
		Seed:  11,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark")
	up := map[int][]bool{0: {true, false, true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Exchange(payload, up); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchange measures the parallel exchange engine on a four-node
// deployment at several worker-pool widths. Results are byte-identical
// across widths; only wall-clock changes. scripts/bench_exchange.sh records
// the sub-benchmark timings (and the host's core count, which bounds the
// attainable speedup) into BENCH_exchange.json.
func BenchmarkExchange(b *testing.B) {
	payload := []byte("fleet payload")
	up := map[int][]bool{
		0: {true, false, true, true},
		1: {false, true, false, false},
		2: {true, true, false, true},
		3: {false, false, true, true},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			n, err := core.NewNetwork(core.Config{
				Nodes: []core.NodeConfig{
					{ID: 1, Range: 1.5},
					{ID: 2, Range: 2.6},
					{ID: 3, Range: 3.8},
					{ID: 4, Range: 5.1},
				},
				// 64 chirps/bit keeps four auto-assigned FSK pairs inside
				// the slow-time band.
				ChirpsPerBit: 64,
				Seed:         14,
			}, core.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			// One warm-up exchange so the scratch buffers reach their
			// high-water marks outside the timed region; the timed loop
			// then measures steady state, which is what the alloc pins
			// and BENCH_exchange.json schema 3 record.
			if _, err := n.Exchange(payload, up); err != nil {
				b.Fatal(err)
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Exchange(payload, up); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.PauseTotalNs-before.PauseTotalNs)/float64(b.N), "gc-pause-ns/op")
		})
	}
}

// BenchmarkFleet measures the serving layer at increasing tenancy: N
// networks resident on a GOMAXPROCS-engine fleet, each driven by its own
// submitting goroutine. Reported metrics are aggregate exchanges/sec and
// the p99 submit-to-done latency from the fleet.latency.seconds histogram;
// scripts/bench_fleet.sh records them into BENCH_fleet.json.
func BenchmarkFleet(b *testing.B) {
	payload := []byte("fleet payload")
	up := map[int][]bool{0: {true, false}, 1: {false, true}}
	for _, networks := range []int{1, 4, 16} {
		b.Run("networks="+strconv.Itoa(networks), func(b *testing.B) {
			m := NewMetrics()
			// Workers=1 per network: fleet tenancy is the parallelism axis
			// under measurement, not the per-exchange fan-out.
			fleet := NewFleet(FleetConfig{Metrics: m}, WithWorkers(1))
			defer fleet.Close()
			handles := make([]*FleetNetwork, networks)
			for i := range handles {
				fn, err := fleet.AddNetwork(Config{
					Nodes: []NodeConfig{
						{ID: 1, Range: 1.5 + 0.2*float64(i%4), ModulationF0: 1000, ModulationF1: 1600},
						{ID: 2, Range: 3.0 + 0.3*float64(i%3), ModulationF0: 2200, ModulationF1: 2800},
					},
					ChirpsPerBit: 16,
					Seed:         20 + int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				// Warm-up reaches each engine-resident scratch high-water
				// mark outside the timed region.
				if _, err := fn.Exchange(payload, up); err != nil {
					b.Fatal(err)
				}
				handles[i] = fn
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, fn := range handles {
				wg.Add(1)
				go func(fn *FleetNetwork) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := fn.Exchange(payload, up); err != nil {
							b.Error(err)
							return
						}
					}
				}(fn)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "exchanges/sec")
			lat := m.Snapshot().Histograms["fleet.latency.seconds"]
			b.ReportMetric(lat.P99*1e3, "p99-latency-ms")
		})
	}
}

func BenchmarkTagDecodeFrame(b *testing.B) {
	n, err := core.NewNetwork(core.Config{
		Nodes: []core.NodeConfig{{ID: 1, Range: 2.6}},
		Seed:  12,
	})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := n.BuildDownlinkFrame([]byte("decode cost"), 0)
	if err != nil {
		b.Fatal(err)
	}
	node := n.Nodes()[0]
	x := node.Tag.FrontEnd.CaptureFrame(frame, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := node.Tag.Decoder.DecodeFrame(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePeriod times the tag's period search on captures of the
// length the round benchmark decodes: a 256-chirp frame (4 uplink bits × 64
// chirps/bit, 30720 samples, as in the 4-tag exchange) and a 64-chirp frame
// (7680 samples), both at the node's downlink SNR, where the header window
// and its edge walk settle the period. The third case is the 256-chirp
// frame at 0 dB, where the walk's gate is not confident and the
// whole-capture search runs: its 102-fold refinement dominates there, so
// CI's one-iteration smoke run covers both paths.
// BenchmarkTagDecodeFrame's 3720-sample frame is a poor stand-in for
// either.
func BenchmarkEstimatePeriod(b *testing.B) {
	n, err := core.NewNetwork(core.Config{
		Nodes:        []core.NodeConfig{{ID: 1, Range: 2.6}},
		ChirpsPerBit: 64,
		Seed:         15,
	})
	if err != nil {
		b.Fatal(err)
	}
	node := n.Nodes()[0]
	snr := n.Link().DownlinkSNRdB(node.Range)
	for _, c := range []struct {
		chirps int
		snr    float64
		path   string
	}{{256, snr, ""}, {64, snr, ""}, {256, 0, "/fallback"}} {
		frame, err := n.BuildDownlinkFrame([]byte("fleet payload"), c.chirps)
		if err != nil {
			b.Fatal(err)
		}
		x := node.Tag.FrontEnd.CaptureFrame(frame, c.snr)
		b.Run("samples="+strconv.Itoa(len(x))+c.path, func(b *testing.B) {
			// One warm-up call grows the decoder scratch outside the timer.
			if _, err := node.Tag.Decoder.EstimatePeriod(x); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := node.Tag.Decoder.EstimatePeriod(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRadarProcessFrame(b *testing.B) {
	n, err := core.NewNetwork(core.Config{
		Nodes: []core.NodeConfig{{ID: 1, Range: 2.6}},
		Seed:  13,
	})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := n.BuildSensingFrame(64)
	if err != nil {
		b.Fatal(err)
	}
	states, err := n.Nodes()[0].Tag.UplinkStates(nil, n.Config().Period, 64)
	if err != nil {
		b.Fatal(err)
	}
	scene := radar.Scene{
		Clutter: channel.OfficeClutter(),
		Tags: []radar.TagEcho{{
			Range: 2.6, States: states,
			PowerDBm: n.Link().UplinkRxPowerDBm(2.6),
		}},
	}
	capt := n.Radar().Observe(frame, scene)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, grid := n.Radar().CorrectedMatrix(capt)
		matrix := radar.SubtractBackgroundMag(radar.MagnitudeMatrix(cm))
		if _, err := n.Radar().DetectTag(matrix, grid, n.Nodes()[0].Uplink.F0, n.Config().Period); err != nil {
			b.Fatal(err)
		}
	}
}
