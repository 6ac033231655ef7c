package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"biscatter/internal/dsp"
	"biscatter/internal/telemetry"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 1000
		counts := make([]int32, n)
		New(workers).For(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForResultsIndependentOfWorkerCount(t *testing.T) {
	const n = 257
	ref := make([]float64, n)
	New(1).For(n, func(i int) { ref[i] = float64(i) * 1.5 })
	got := make([]float64, n)
	New(8).For(n, func(i int) { got[i] = float64(i) * 1.5 })
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("index %d: %v != %v", i, ref[i], got[i])
		}
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want %d", got, want)
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
}

func TestForZeroAndOneIndex(t *testing.T) {
	ran := 0
	New(4).For(0, func(i int) { ran++ })
	if ran != 0 {
		t.Fatalf("fn ran %d times for n=0", ran)
	}
	New(4).For(1, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("fn ran %d times for n=1", ran)
	}
}

func TestForContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := New(4).ForContext(ctx, 100, func(i int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn was called under a cancelled context")
	}
}

func TestForContextStopsPromptlyOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := New(2).ForContext(ctx, 1_000_000, func(i int) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > 100 {
		t.Fatalf("ran %d indices after cancellation; want prompt stop", got)
	}
}

func TestForContextPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := New(4).ForContext(context.Background(), 10_000, func(i int) error {
		calls.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := calls.Load(); got == 10_000 {
		t.Fatal("error did not short-circuit the loop")
	}
}

func TestForContextSerialPath(t *testing.T) {
	boom := errors.New("boom")
	var order []int
	err := New(1).ForContext(context.Background(), 10, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(order) != 4 {
		t.Fatalf("serial path ran %d indices, want 4 (stop at first error)", len(order))
	}
}

// TestInstrumentedPoolCounts pins the pool telemetry's determinism
// contract: queued/completed counts and histogram sample counts depend only
// on the loops run, never on the worker count, and the busy gauge returns
// to zero once every loop has joined.
func TestInstrumentedPoolCounts(t *testing.T) {
	const n = 257
	counts := func(workers int) telemetry.Snapshot {
		m := telemetry.New()
		p := New(workers).Instrument(m)
		p.For(n, func(int) {})
		if err := p.ForContext(context.Background(), n, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	for _, workers := range []int{1, 8} {
		s := counts(workers)
		if got := s.Counters["parallel.tasks_queued"]; got != 2*n {
			t.Errorf("workers=%d: tasks_queued = %d, want %d", workers, got, 2*n)
		}
		if got := s.Counters["parallel.tasks_completed"]; got != 2*n {
			t.Errorf("workers=%d: tasks_completed = %d, want %d", workers, got, 2*n)
		}
		if got := s.Histograms["parallel.task.seconds"].Count; got != 2*n {
			t.Errorf("workers=%d: task duration samples = %d, want %d", workers, got, 2*n)
		}
		if _, ok := s.Histograms["parallel.queue_wait.seconds"]; ok {
			t.Errorf("workers=%d: parallel.queue_wait.seconds is registered; the meter was removed", workers)
		}
		if got := s.Gauges["parallel.workers_busy"]; got != 0 {
			t.Errorf("workers=%d: workers_busy after join = %v, want 0", workers, got)
		}
	}
}

func TestInstrumentNilRegistryIsNoop(t *testing.T) {
	p := New(4).Instrument(nil)
	if p.stats != nil {
		t.Fatal("nil registry must leave the pool uninstrumented")
	}
	p.For(10, func(int) {})
}

// TestForWorkersWorkerLocalScratch runs a worker-indexed loop at several
// widths under -race: every index grows worker g's scratch row, fills it,
// and writes its result by index. Distinct workers never share a row, so
// this must be race-free, and the results must match the serial reference.
func TestForWorkersWorkerLocalScratch(t *testing.T) {
	const n = 500
	ref := make([]float64, n)
	for _, workers := range []int{1, 4, 8} {
		p := New(workers)
		w := p.Workers()
		rows := make([][]float64, w)
		out := make([]float64, n)
		err := p.ForWorkers(context.Background(), w, n, func(g, i int) error {
			size := 16 + i%37
			f := dsp.Resize(rows[g], size)
			rows[g] = f
			for j := range f {
				f[j] = float64(i + j)
			}
			out[i] = f[size-1]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			copy(ref, out)
			continue
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: index %d = %v, want %v", workers, i, out[i], ref[i])
			}
		}
	}
}

// TestForWorkersCallsOfOneWorkerNeverOverlap is the contract that lets fn
// use worker g's scratch without locking: under -race, at every width, no
// two calls with the same g are ever in flight together, and g stays below
// the width the caller passed.
func TestForWorkersCallsOfOneWorkerNeverOverlap(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		busy := make([]atomic.Bool, workers)
		var calls atomic.Int64
		err := New(workers).ForWorkers(context.Background(), workers, 2000, func(g, i int) error {
			if g < 0 || g >= workers {
				return fmt.Errorf("index %d ran on worker %d of %d", i, g, workers)
			}
			if !busy[g].CompareAndSwap(false, true) {
				return fmt.Errorf("index %d: worker %d already inside fn", i, g)
			}
			calls.Add(1)
			runtime.Gosched()
			busy[g].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := calls.Load(); got != 2000 {
			t.Fatalf("workers=%d: ran %d indices, want 2000", workers, got)
		}
	}
}

func TestForWorkersSteadyStateAllocFree(t *testing.T) {
	p := New(1)
	const n = 64
	rows := make([][]complex128, p.Workers())
	body := func(g, i int) error {
		rows[g] = dsp.Resize(rows[g], 256)
		rows[g][0] = 1
		return nil
	}
	// Warm the worker rows.
	for i := 0; i < 3; i++ {
		if err := p.ForWorkers(context.Background(), len(rows), n, body); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.ForWorkers(context.Background(), len(rows), n, body); err != nil {
			t.Fatal(err)
		}
	})
	// The serial path may still allocate a few per-loop values, but the
	// per-index scratch must be free: anything beyond a few allocs per loop
	// means the worker rows regressed.
	if allocs > 4 {
		t.Fatalf("steady-state ForWorkers allocated %v times per loop, want <= 4", allocs)
	}
}

func TestForWorkersPropagatesErrorsAndCancellation(t *testing.T) {
	boom := errors.New("boom")
	err := New(4).ForWorkers(context.Background(), 4, 1000, func(g, i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err = New(4).ForWorkers(ctx, 4, 10, func(g, i int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn was called under a cancelled context")
	}
}

// TestForContextCancelAfterLastIndex pins the loop result to the work done,
// not to the width: a context cancelled by the call that completes the last
// index leaves nothing unrun, so the loop returns nil at every width.
func TestForContextCancelAfterLastIndex(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4} {
		for _, indexed := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			body := func() error {
				if calls.Add(1) == n {
					cancel()
				}
				return nil
			}
			var err error
			if indexed {
				err = New(workers).ForWorkers(ctx, workers, n, func(int, int) error { return body() })
			} else {
				err = New(workers).ForContext(ctx, n, func(int) error { return body() })
			}
			cancel()
			if err != nil {
				t.Errorf("workers=%d indexed=%v: err = %v after every index ran, want nil", workers, indexed, err)
			}
			if got := calls.Load(); got != n {
				t.Errorf("workers=%d indexed=%v: ran %d indices, want %d", workers, indexed, got, n)
			}
		}
	}
}

// TestForWorkersEveryWorkerWarmsInFirstLoop pins first-index seeding: on
// one OS thread the scheduler may run the last-spawned worker until the
// loop is drained, yet every worker still runs its own first index, so one
// loop warms every worker's scratch row.
func TestForWorkersEveryWorkerWarmsInFirstLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := make([][]float64, 2)
	err := New(2).ForWorkers(context.Background(), len(rows), 64, func(g, _ int) error {
		rows[g] = dsp.Resize(rows[g], 256)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, row := range rows {
		if row == nil {
			t.Errorf("worker %d row is cold after one width-2 loop", g)
		}
	}
}
