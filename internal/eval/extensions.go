package eval

import (
	"fmt"

	"biscatter/internal/delayline"
	"biscatter/internal/mac"
	"biscatter/internal/msck"
	"biscatter/internal/tag"
)

// Extensions quantifies the §6 future-work directions implemented in this
// repository: the multi-segment (CSS-style) downlink and the multi-radar /
// multi-tag medium sharing.
func Extensions(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		ID:          "ext",
		Description: "§6 future-work extensions: CSS-style downlink and MAC-layer sharing",
	}

	// Multi-segment chirp keying: rate vs BER frontier against CSSK.
	pair := delayline.PaperCoaxPair()
	tbl := Table{
		Title:   fmt.Sprintf("MSCK extension — rate vs BER at 20 dB SNR (%d chirps/point)", o.Frames*4),
		Columns: []string{"scheme", "bits/chirp", "rate (kbit/s)", "BER"},
	}
	// CSSK baseline at the paper's operating point.
	csskBER, err := DownlinkBER(DownlinkSetup{SymbolBits: 5}, 20, o.Frames, o.Seed)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("CSSK (5-bit)", "5", fmt.Sprintf("%.1f", 5/120e-6/1e3), FormatBER(csskBER))
	for _, cfg := range []struct {
		segments, slopes int
	}{
		{2, 8},
		{4, 8},
		{8, 4},
	} {
		s, err := msck.New(msck.Config{
			Bandwidth:        1e9,
			ChirpDuration:    96e-6,
			Period:           120e-6,
			Segments:         cfg.segments,
			SlopesPerSegment: cfg.slopes,
			Pair:             pair,
			CenterFrequency:  9.5e9,
			SampleRate:       tag.ADCRate,
		})
		if err != nil {
			return nil, err
		}
		errs, total, err := s.MeasureBER(20, o.Frames*4, o.Seed+int64(cfg.segments))
		if err != nil {
			return nil, err
		}
		c := &BERCounter{Errors: errs, Total: total}
		tbl.AddRow(
			fmt.Sprintf("MSCK %d seg × %d slopes", cfg.segments, cfg.slopes),
			fmt.Sprintf("%d", s.BitsPerChirp()),
			fmt.Sprintf("%.1f", s.DataRate()/1e3),
			FormatBER(c))
	}
	res.Tables = append(res.Tables, tbl)

	// Per-node rate vs aggregate throughput (multi-tag).
	tbl2 := Table{
		Title:   "Multi-tag trade-off — per-node rate vs network throughput (32 chirps/bit)",
		Columns: []string{"tags", "concurrent", "per-node (bit/s)", "aggregate (bit/s)"},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		tp, err := mac.NetworkThroughput(n, 32, 120e-6)
		if err != nil {
			return nil, err
		}
		tbl2.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", tp.Concurrent),
			fmt.Sprintf("%.0f", tp.PerNodeBitRate), fmt.Sprintf("%.0f", tp.AggregateBitRate))
	}
	res.Tables = append(res.Tables, tbl2)

	// Multi-radar medium sharing.
	tbl3 := Table{
		Title:   "Multi-radar sharing — slot utilization over 10k slots",
		Columns: []string{"radars", "TDMA", "slotted ALOHA (p=1/n)"},
	}
	for _, n := range []int{2, 4, 8} {
		tdma, err := mac.Simulate(mac.TDMA{Radars: n}, n, 10000, o.Seed)
		if err != nil {
			return nil, err
		}
		aloha, err := mac.Simulate(mac.SlottedAloha{P: mac.OptimalAlohaP(n)}, n, 10000, o.Seed+1)
		if err != nil {
			return nil, err
		}
		tbl3.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f%%", 100*tdma.Utilization()),
			fmt.Sprintf("%.0f%%", 100*aloha.Utilization()))
	}
	res.Tables = append(res.Tables, tbl3)
	res.Notes = append(res.Notes,
		"MSCK multiplies bits per chirp but needs a segment-agile chirp generator, which is why the paper leaves CSS-style downlinks to future work",
		"slotted ALOHA settles near the classic 1/e utilization; TDMA needs coordination but wastes nothing")
	return res, nil
}
