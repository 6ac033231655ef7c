// Package parallel is the shared worker-pool layer behind the simulator's
// hot loops: per-chirp dechirp and range-FFT work in the radar, per-node
// downlink decoding and signature scans in the network core, and sweep
// points in the experiment harness.
//
// The pool is deliberately minimal. It holds no goroutines between calls —
// every For spawns its workers, distributes indices through an atomic
// counter, and joins — so a Pool is just a worker-count policy (plus an
// optional telemetry hook, see Instrument) and is safe to share and embed
// freely. Determinism is the caller's contract: fn must
// write results into pre-sized slices by index (never append) and must not
// share mutable state across indices; under that contract the result is
// byte-identical for any worker count, because only the execution order
// varies.
//
// For loops that need per-index scratch memory, ForArena/ForContextArena
// hand each worker its own pool-owned dsp.Arena: checkouts are lock-free on
// the hot path (no worker shares an arena) and every buffer is reclaimed
// after each index, so a steady-state loop touches the heap only on its
// first iterations.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biscatter/internal/dsp"
	"biscatter/internal/telemetry"
)

// Pool schedules index-parallel loops over a fixed number of workers.
// The zero value is not ready; use New.
type Pool struct {
	workers int
	stats   *poolStats

	// arenas are the pool-owned worker-local scratch arenas handed out by
	// ForArena/ForContextArena; arenas[g] belongs to worker g for the
	// duration of one loop. arenasBusy guards against overlapping arena
	// loops on the same pool (legal but rare — e.g. a caller running two
	// pool loops from different goroutines); the loser of the CAS borrows
	// arenas from the package-level spare pool instead, trading a few
	// allocations for correctness.
	arenas     []*dsp.Arena
	arenasBusy atomic.Bool
}

// spareArenas backs the fallback path when a pool's own arenas are already
// checked out by a concurrently running loop.
var spareArenas = sync.Pool{New: func() any { return dsp.NewArena() }}

// poolStats holds the pool's pre-resolved telemetry handles. All fields are
// nil-tolerant telemetry primitives, but the pool additionally gates on the
// struct pointer so the disabled path takes no clock readings.
type poolStats struct {
	queued    *telemetry.Counter   // tasks handed to For/ForContext
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
	w := p.Workers()
	if w > n {
		w = n
	}
	return w
}

// acquireArenas hands out w worker-local arenas for one loop. The common
// case takes the pool's own arenas (growing the set on first use); if
// another loop on this pool currently holds them, fresh arenas are borrowed
// from the package spare pool. owned reports which case applied.
func (p *Pool) acquireArenas(w int) (arenas []*dsp.Arena, owned bool) {
	if p.arenasBusy.CompareAndSwap(false, true) {
		for len(p.arenas) < w {
			p.arenas = append(p.arenas, dsp.NewArena())
		}
		return p.arenas[:w], true
	}
	arenas = make([]*dsp.Arena, w)
	for i := range arenas {
		arenas[i] = spareArenas.Get().(*dsp.Arena)
	}
	return arenas, false
}

// releaseArenas returns arenas acquired by acquireArenas. Pool-owned arenas
// are kept (their buckets persist across loops — that is the whole point);
// borrowed spares go back to the package pool reset.
func (p *Pool) releaseArenas(arenas []*dsp.Arena, owned bool) {
	if owned {
		p.arenasBusy.Store(false)
		return
	}
	for _, a := range arenas {
		a.Reset()
		spareArenas.Put(a)
	}
}

// ArenaFootprintBytes sums the high-water marks of the pool-owned worker
// arenas — the resident scratch memory the pool has accumulated. It is a
// diagnostic for leak tests and must not race a running arena loop.
func (p *Pool) ArenaFootprintBytes() int {
	total := 0
	for _, a := range p.arenas {
		total += a.HighWaterBytes()
	}
	return total
}

// instrument wraps a worker-indexed fn with per-task telemetry when the
// pool is instrumented: task duration, busy gauge and completion count.
// Returns fn unchanged on an uninstrumented pool.
func (p *Pool) instrument(n, width int, fn func(g, i int)) func(g, i int) {
	st := p.stats
	if st == nil {
		return fn
	}
	st.queued.Add(int64(n))
	st.width.Set(float64(width))
	return func(g, i int) {
		claimed := time.Now()
		st.busy.Add(1)
		fn(g, i)
		st.busy.Add(-1)
		st.duration.Observe(time.Since(claimed).Seconds())
		st.completed.Inc()
	}
}

// instrumentErr is instrument for error-returning fns (the ForContext
// variants).
func (p *Pool) instrumentErr(n, width int, fn func(g, i int) error) func(g, i int) error {
	st := p.stats
	if st == nil {
		return fn
	}
	st.queued.Add(int64(n))
	st.width.Set(float64(width))
	return func(g, i int) error {
		claimed := time.Now()
		st.busy.Add(1)
		err := fn(g, i)
		st.busy.Add(-1)
		st.duration.Observe(time.Since(claimed).Seconds())
		st.completed.Inc()
		return err
	}
}

// run executes fn(g, i) for every i in [0, n) across w workers; worker g
// claims indices from a shared atomic counter. w <= 1 degenerates to a
// plain loop on worker 0.
func (p *Pool) run(n, w int, fn func(g, i int)) {
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(g, i)
			}
		}(g)
	}
	wg.Wait()
}

// runContext is run with cooperative cancellation and error propagation;
// see ForContext for the contract.
func (p *Pool) runContext(ctx context.Context, n, w int, fn func(g, i int) error) error {
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		callErr error
		wg      sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(g, i); err != nil {
					mu.Lock()
					if callErr == nil {
						callErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if callErr != nil {
		return callErr
	}
	return ctx.Err()
}

// For runs fn(i) for every i in [0, n), spread across the pool's workers,
// and returns when all calls have finished. With one worker (or one index)
// it degenerates to a plain loop.
func (p *Pool) For(n int, fn func(i int)) {
	w := p.width(n)
	body := p.instrument(n, w, func(_, i int) { fn(i) })
	p.run(n, w, body)
}

// ForArena is For with worker-local scratch: fn additionally receives the
// claiming worker's dsp.Arena, from which it may check out slices that are
// valid for that one index — the pool resets the arena after every fn
// return. No locking happens on the checkout path because no two workers
// ever share an arena. The arenas (and their buffers) are pool-owned and
// persist across loops, so steady-state iterations allocate nothing.
func (p *Pool) ForArena(n int, fn func(i int, a *dsp.Arena)) {
	w := p.width(n)
	arenas, owned := p.acquireArenas(w)
	defer p.releaseArenas(arenas, owned)
	body := p.instrument(n, w, func(g, i int) {
		a := arenas[g]
		fn(i, a)
		a.Reset()
	})
	p.run(n, w, body)
}

// ForContext is For with cooperative cancellation and error propagation:
// workers stop claiming new indices as soon as ctx is done or any fn call
// returns an error. In-flight calls run to completion (fn is never
// interrupted mid-index), then ForContext returns the first fn error, or
// ctx.Err() when the context ended the loop early. A context that is
// already done returns immediately without calling fn.
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
	body := p.instrumentErr(n, w, func(_, i int) error { return fn(i) })
	return p.runContext(ctx, n, w, body)
}

// ForContextArena is ForContext with the worker-local scratch arenas of
// ForArena: per-index checkouts, reset by the pool after every fn return.
func (p *Pool) ForContextArena(ctx context.Context, n int, fn func(i int, a *dsp.Arena) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := p.width(n)
	arenas, owned := p.acquireArenas(w)
	defer p.releaseArenas(arenas, owned)
	body := p.instrumentErr(n, w, func(g, i int) error {
		a := arenas[g]
		err := fn(i, a)
		a.Reset()
		return err
	})
	return p.runContext(ctx, n, w, body)
}
