package biscatter

// BenchmarkGateway measures the schedule-aware serving layer itself — the
// session supervision, per-frame-group round barrier and wire round-trips —
// with the exchange stubbed out, per transport. The physics cost is
// measured elsewhere (BenchmarkFleet, the eval gateway experiment); this
// isolates what the netio layer adds per round at fleet scale.

import (
	"context"
	"sync"
	"testing"
	"time"

	"biscatter/internal/mac"
	"biscatter/internal/netio"
)

func BenchmarkGateway(b *testing.B) {
	const (
		tags     = 8
		capacity = 4
	)
	for _, transport := range []string{netio.TransportUDP, netio.TransportTCP} {
		b.Run("transport="+transport, func(b *testing.B) {
			sched, err := mac.NewFrameSchedule(tags, capacity)
			if err != nil {
				b.Fatal(err)
			}
			echo := func(round uint64, bits map[uint8][]bool) (map[uint8]netio.Outcome, error) {
				out := make(map[uint8]netio.Outcome, len(bits))
				for tagID, bs := range bits {
					out[tagID] = netio.Outcome{UplinkBits: bs, DetectionBin: int(round)}
				}
				return out, nil
			}
			gwConn, err := netio.ListenTransport(transport, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer gwConn.Close()
			gw := netio.NewGateway(gwConn, netio.GatewayConfig{
				Schedule:       sched,
				MinSessions:    tags,
				RoundTimeout:   5 * time.Second,
				SessionTimeout: time.Minute,
				Poll:           time.Millisecond,
			}, echo)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gwDone := make(chan error, 1)
			go func() { gwDone <- gw.Run(ctx) }()

			clients := make([]*netio.Client, tags)
			conns := make([]*netio.Node, tags)
			for i := range clients {
				conn, err := netio.ListenTransport(transport, "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = conn
				c, err := netio.Dial(conn, gwConn.Addr().String(), netio.ClientConfig{
					TagID:          uint8(i + 1),
					Seed:           int64(i),
					AttemptTimeout: 2 * time.Second,
					MaxAttempts:    10,
				})
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			defer func() {
				for i := range clients {
					clients[i].Close()
					conns[i].Close()
				}
				cancel()
				<-gwDone
			}()
			bits := []bool{true, false, true, false}

			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i, c := range clients {
					wg.Add(1)
					go func(i int, c *netio.Client) {
						defer wg.Done()
						res, err := c.SubmitRound(ctx, bits)
						if err != nil {
							b.Errorf("tag %d round %d: %v", i+1, n, err)
							return
						}
						if res.Status != netio.RoundOK {
							b.Errorf("tag %d round %d: status %v (round %d)", i+1, n, res.Status, res.Round)
						}
					}(i, c)
				}
				wg.Wait()
				if b.Failed() {
					b.FailNow()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(float64(b.N*tags)/b.Elapsed().Seconds(), "results/sec")
		})
	}
}
