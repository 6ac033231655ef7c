// Package parallel is the shared worker-pool layer behind the simulator's
// hot loops: per-chirp dechirp and range-FFT work in the radar, per-node
// downlink decoding and signature scans in the network core, and sweep
// points in the experiment harness.
//
// The pool is deliberately minimal. It holds no goroutines between calls —
// every loop spawns its workers and joins them — so a Pool is just a
// worker-count policy (plus an optional telemetry hook, see Instrument) and
// is safe to share and embed freely. Worker g runs index g first and then
// claims further indices from a shared atomic counter that starts at the
// width, so every worker takes at least one task per loop however late the
// scheduler starts its goroutine, and load balancing stays dynamic.
// Determinism is the caller's contract: fn must write results into
// pre-sized slices by index (never append) and must not share mutable state
// across indices; under that contract the result is byte-identical for any
// worker count, because only the execution order varies.
//
// For loops that need scratch memory, ForWorkers passes fn the index of the
// worker running it: the caller keeps one scratch row per worker, sized
// before the loop, and worker g alone touches row g, so no locking is
// needed and a steady-state loop reuses the rows without allocating.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biscatter/internal/telemetry"
)

// Pool schedules index-parallel loops over a fixed number of workers.
// The zero value is not ready; use New.
type Pool struct {
	workers int
	stats   *poolStats
}

// poolStats holds the pool's pre-resolved telemetry handles. All fields are
// nil-tolerant telemetry primitives, but the pool additionally gates on the
// struct pointer so the disabled path takes no clock readings.
type poolStats struct {
	queued    *telemetry.Counter   // tasks handed to a loop
	completed *telemetry.Counter   // tasks whose fn returned
	duration  *telemetry.Histogram // seconds spent inside fn
	busy      *telemetry.Gauge     // workers currently inside fn
	width     *telemetry.Gauge     // effective width of the last loop
}

// New returns a pool of the given width. Non-positive widths select
// GOMAXPROCS at call time, so a default pool tracks the machine.
func New(workers int) *Pool {
	return &Pool{workers: workers}
}

// Instrument attaches pool telemetry to the registry under the "parallel."
// prefix and returns the pool for chaining: tasks queued/completed counters,
// a task-duration histogram, and a workers-busy gauge — the data that says
// whether the pool width matches the workload. A nil registry leaves the
// pool uninstrumented (zero overhead). Pools instrumented with the same
// registry share the same metrics, giving an aggregate view across the
// subsystem pools.
//
// Determinism: the queued/completed counts and histogram sample counts
// depend only on the loops run, not on the worker count; timings and the
// busy/width gauges are live state and exempt.
func (p *Pool) Instrument(m *telemetry.Metrics) *Pool {
	if m == nil {
		return p
	}
	p.stats = &poolStats{
		queued:    m.Counter("parallel.tasks_queued"),
		completed: m.Counter("parallel.tasks_completed"),
		duration:  m.Histogram("parallel.task.seconds"),
		busy:      m.Gauge("parallel.workers_busy"),
		width:     m.Gauge("parallel.pool_width"),
	}
	return p
}

// Workers returns the effective worker count.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// width clamps the worker count to the job count; a width of 1 selects the
// serial fast path (no goroutines, no atomics).
func (p *Pool) width(n int) int {
	return min(p.Workers(), n)
}

// run executes fn(g, i) for every i in [0, n) on worker g of a loop w
// workers wide and returns the first fn error, else ctx.Err() if an index
// was left unrun, else nil. Workers stop claiming once ctx is done or an fn
// call has failed; in-flight calls run to completion. Worker g runs index g
// first, then claims from the shared counter, which starts at w.
func (p *Pool) run(ctx context.Context, w, n int, fn func(g, i int) error) error {
	st := p.stats
	if st != nil {
		st.queued.Add(int64(n))
		st.width.Set(float64(w))
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := st.call(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool // an fn call failed
		cut      atomic.Bool // ctx ended the loop with an index unrun
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(int64(w))
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := g; i < n; i = int(next.Add(1)) - 1 {
				if stop.Load() {
					return
				}
				if ctx.Err() != nil {
					cut.Store(true)
					return
				}
				if err := st.call(fn, g, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && cut.Load() {
		return ctx.Err()
	}
	return firstErr
}

// call runs one task, timed and counted when the pool is instrumented.
func (st *poolStats) call(fn func(g, i int) error, g, i int) error {
	if st == nil {
		return fn(g, i)
	}
	start := time.Now()
	st.busy.Add(1)
	err := fn(g, i)
	st.busy.Add(-1)
	st.duration.Observe(time.Since(start).Seconds())
	st.completed.Inc()
	return err
}

// For runs fn(i) for every i in [0, n), spread across the pool's workers,
// and returns when all calls have finished. With one worker (or one index)
// it degenerates to a plain loop.
func (p *Pool) For(n int, fn func(i int)) {
	p.run(context.Background(), p.width(n), n, func(_, i int) error {
		fn(i)
		return nil
	})
}

// ForContext is For with cooperative cancellation and error propagation:
// workers stop claiming new indices as soon as ctx is done or any fn call
// returns an error. In-flight calls run to completion (fn is never
// interrupted mid-index), then ForContext returns the first fn error, or
// ctx.Err() when the context ended the loop before every index ran. A
// context that is already done returns immediately without calling fn.
func (p *Pool) ForContext(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := p.width(n)
	sp := telemetry.SpanFromContext(ctx).Child("parallel.for", -1)
	if sp != nil {
		sp.SetAttr("tasks", n)
		sp.SetAttr("width", w)
		defer sp.End()
	}
	return p.run(ctx, w, n, func(_, i int) error { return fn(i) })
}

// ForWorkers is ForContext with the worker index: fn(g, i) runs index i
// on worker g, where g < workers. The caller reads Workers once, sizes its
// per-worker scratch to that count and passes it here, so every g the loop
// hands out indexes that scratch even if GOMAXPROCS changes meanwhile; the
// loop runs min(workers, n) wide. Calls with the same g never overlap, so fn
// may use the scratch of worker g without locking. Unlike ForContext it
// opens no "parallel.for" span.
func (p *Pool) ForWorkers(ctx context.Context, workers, n int, fn func(g, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.run(ctx, min(workers, n), n, fn)
}
