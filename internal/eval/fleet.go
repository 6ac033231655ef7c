package eval

import (
	"fmt"
	"sync"
	"time"

	"biscatter/internal/core"
	"biscatter/internal/mac"
	"biscatter/internal/telemetry"
)

// FleetPoint is one tenancy level of the fleet throughput sweep.
type FleetPoint struct {
	// Networks is the number of resident networks driven concurrently.
	Networks int
	// Exchanges is the total number of exchange rounds served.
	Exchanges int
	// Delivered counts node results whose downlink decoded cleanly.
	Delivered int
	// NodeResults is the total number of node results (the Delivered
	// denominator).
	NodeResults int
	// Elapsed is the wall-clock time for the whole burst.
	Elapsed time.Duration
	// P99Latency is the submit-to-done p99 from fleet.latency.seconds.
	P99Latency time.Duration
	// P99QueueWait is the submit-to-start p99 from fleet.queue_wait.seconds.
	P99QueueWait time.Duration
}

// ExchangesPerSec is the aggregate serving throughput of the point.
func (p FleetPoint) ExchangesPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Exchanges) / p.Elapsed.Seconds()
}

// FleetSweep drives rounds exchanges on each of n networks resident on one
// fleet, one submitter goroutine per network, and reports the aggregate
// outcome. Delivery counts are deterministic for a given seed; timings are
// host-dependent.
func FleetSweep(n, rounds int, o Options) (FleetPoint, error) {
	m := telemetry.New()
	fleet := core.NewFleet(core.FleetConfig{Metrics: m}, core.WithWorkers(1))
	defer fleet.Close()

	handles := make([]*core.FleetNetwork, n)
	for i := range handles {
		fn, err := fleet.AddNetwork(core.Config{
			Nodes: []core.NodeConfig{
				{ID: 1, Range: 1.5 + 0.2*float64(i%4), ModulationF0: 1000, ModulationF1: 1600},
				{ID: 2, Range: 3.0 + 0.3*float64(i%3), ModulationF0: 2200, ModulationF1: 2800},
			},
			// 16 chirps/bit keeps the sweep fast but leaves the far node
			// (3.0-3.6 m) with a ~1% residual packet error floor; those
			// losses are a property of the link, not the serving layer —
			// fleet runs reproduce them packet-for-packet against
			// standalone networks with the same seeds.
			ChirpsPerBit: 16,
			Seed:         o.Seed + int64(i),
		})
		if err != nil {
			return FleetPoint{}, err
		}
		handles[i] = fn
	}

	pt := FleetPoint{Networks: n, Exchanges: n * rounds}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		firstErr  error
		delivered int
		results   int
	)
	start := time.Now()
	for id, fn := range handles {
		wg.Add(1)
		go func(id int, fn *core.FleetNetwork) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload := core.RandomPayload(o.Seed+int64(id*1000+r), 4)
				uplink := map[int][]bool{0: {r%2 == 0, true}, 1: {false, r%2 == 1}}
				res, err := fn.Exchange(payload, uplink)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("network %d round %d: %w", id, r, err)
					}
					mu.Unlock()
					return
				}
				for _, nr := range res.Nodes {
					results++
					if nr.DownlinkErr == nil {
						delivered++
					}
				}
				mu.Unlock()
			}
		}(id, fn)
	}
	wg.Wait()
	if firstErr != nil {
		return FleetPoint{}, firstErr
	}
	pt.Elapsed = time.Since(start)
	pt.Delivered = delivered
	pt.NodeResults = results
	snap := m.Snapshot()
	pt.P99Latency = time.Duration(snap.Histograms["fleet.latency.seconds"].P99 * float64(time.Second))
	pt.P99QueueWait = time.Duration(snap.Histograms["fleet.queue_wait.seconds"].P99 * float64(time.Second))
	return pt, nil
}

// Fleet regenerates the serving-layer throughput table: concurrent
// exchanges/sec and tail latency at increasing tenancy on one fleet,
// plus the frame-schedule capacity model for deployments beyond the
// slow-time tone budget. Delivery columns are deterministic for a given
// seed; throughput and latency columns are host-dependent wall-clock
// measurements (the bench script records them per host).
func Fleet(o Options) (*Result, error) {
	o = o.withDefaults()
	rounds := o.Trials

	tbl := Table{
		Title: fmt.Sprintf("Fleet — concurrent serving throughput (%d rounds per network, 2 nodes each)", rounds),
		Columns: []string{"networks", "exchanges", "delivered", "exchanges/sec",
			"p99 latency (ms)", "p99 queue wait (ms)"},
	}
	for _, n := range []int{1, 4, 16} {
		pt, err := FleetSweep(n, rounds, o)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(
			fmt.Sprintf("%d", pt.Networks),
			fmt.Sprintf("%d", pt.Exchanges),
			fmt.Sprintf("%d/%d", pt.Delivered, pt.NodeResults),
			fmt.Sprintf("%.1f", pt.ExchangesPerSec()),
			fmt.Sprintf("%.1f", pt.P99Latency.Seconds()*1e3),
			fmt.Sprintf("%.1f", pt.P99QueueWait.Seconds()*1e3),
		)
	}

	// The §7 capacity model, now realized by the frame scheduler: tags
	// beyond the per-frame tone budget share tones across TDMA frame
	// groups, trading per-node rate for deployment size.
	const (
		period       = 120e-6
		chirpsPerBit = 64
	)
	cap := mac.MaxConcurrentTags(period, chirpsPerBit)
	sched := Table{
		Title:   fmt.Sprintf("Frame schedule — uplink capacity vs deployment size (capacity %d tags/frame)", cap),
		Columns: []string{"tags", "frames/cycle", "per-node bit/s", "aggregate bit/s"},
	}
	for _, tags := range []int{cap, 2 * cap, 4 * cap} {
		s, err := mac.ScheduleFor(tags, period, chirpsPerBit)
		if err != nil {
			return nil, err
		}
		tp := s.Throughput(chirpsPerBit, period)
		sched.AddRow(
			fmt.Sprintf("%d", tags),
			fmt.Sprintf("%d", s.Frames()),
			fmt.Sprintf("%.1f", tp.PerNodeBitRate),
			fmt.Sprintf("%.1f", tp.AggregateBitRate),
		)
	}

	return &Result{
		ID:          "fleet",
		Description: "fleet-scale serving: many networks on one fleet and TDMA frame scheduling",
		Tables:      []Table{tbl, sched},
		Notes: []string{
			"per-network exchange sequences are byte-identical to standalone networks with the same seeds at every tenancy (each network's calls run one at a time)",
			"throughput and latency columns are wall-clock measurements on this host; delivery counts are deterministic for a given seed (residual losses are the far node's ~1% packet error floor at 16 chirps/bit, reproduced packet-for-packet by standalone networks)",
			"aggregate uplink bit/s is flat across deployment sizes: TDMA frame groups split a fixed tone budget, so per-node rate falls as 1/frames (Table under §7's concurrency bound)",
		},
	}, nil
}
