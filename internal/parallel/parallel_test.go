package parallel

import (
	"context"
	"errors"
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

// TestForArenaWorkerLocalScratch runs an arena loop at several widths under
// -race: every index checks out scratch, fills it, and verifies it was handed
// a zeroed view. Distinct workers never share an arena, so this must be
// race-free, and results written by index must match the serial reference.
func TestForArenaWorkerLocalScratch(t *testing.T) {
	const n = 500
	ref := make([]float64, n)
	for _, workers := range []int{1, 4, 8} {
		out := make([]float64, n)
		New(workers).ForArena(n, func(i int, a *dsp.Arena) {
			size := 16 + i%37
			f := a.Float(size)
			c := a.Complex(size / 2)
			for j := range f {
				if f[j] != 0 {
					t.Errorf("workers=%d index %d: dirty float scratch", workers, i)
					return
				}
				f[j] = float64(i + j)
			}
			for j := range c {
				c[j] = complex(float64(i), float64(j))
			}
			out[i] = f[size-1] + real(c[0])
		})
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

func TestForArenaSteadyStateAllocFree(t *testing.T) {
	p := New(1)
	const n = 64
	// Warm the pool-owned arena buckets.
	for i := 0; i < 3; i++ {
		p.ForArena(n, func(i int, a *dsp.Arena) {
			a.Float(128)[0] = 1
			a.Complex(256)[0] = 1
		})
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.ForArena(n, func(i int, a *dsp.Arena) {
			a.Float(128)[0] = 1
			a.Complex(256)[0] = 1
		})
	})
	// The serial path may still allocate the loop-body closures, but the per-
	// index checkouts must be free: anything beyond a few allocs per loop
	// means the arena path regressed.
	if allocs > 4 {
		t.Fatalf("steady-state ForArena allocated %v times per loop, want <= 4", allocs)
	}
}

func TestForContextArenaPropagatesErrorsAndCancellation(t *testing.T) {
	boom := errors.New("boom")
	err := New(4).ForContextArena(context.Background(), 1000, func(i int, a *dsp.Arena) error {
		if a.Float(8) == nil {
			return errors.New("nil scratch")
		}
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
	err = New(4).ForContextArena(ctx, 10, func(i int, a *dsp.Arena) error {
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

func TestArenaFootprintStabilizes(t *testing.T) {
	p := New(2)
	var after2 int
	for iter := 0; iter < 50; iter++ {
		p.ForArena(256, func(i int, a *dsp.Arena) {
			a.Complex(4096)
			a.Float(512)
		})
		if iter == 1 {
			after2 = p.ArenaFootprintBytes()
		}
	}
	if got := p.ArenaFootprintBytes(); got != after2 {
		t.Fatalf("pool arena footprint grew: %d after 2 loops, %d after 50", after2, got)
	}
	if after2 == 0 {
		t.Fatal("pool arena footprint should be nonzero after arena loops")
	}
}

// TestForContextCancelAfterLastIndex pins the loop result to the work done,
// not to the width: a context cancelled by the call that completes the last
// index leaves nothing unrun, so the loop returns nil at every width.
func TestForContextCancelAfterLastIndex(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4} {
		for _, arena := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			body := func() error {
				if calls.Add(1) == n {
					cancel()
				}
				return nil
			}
			var err error
			if arena {
				err = New(workers).ForContextArena(ctx, n, func(int, *dsp.Arena) error { return body() })
			} else {
				err = New(workers).ForContext(ctx, n, func(int) error { return body() })
			}
			cancel()
			if err != nil {
				t.Errorf("workers=%d arena=%v: err = %v after every index ran, want nil", workers, arena, err)
			}
			if got := calls.Load(); got != n {
				t.Errorf("workers=%d arena=%v: ran %d indices, want %d", workers, arena, got, n)
			}
		}
	}
}

// TestForArenaEveryWorkerWarmsInFirstLoop pins first-index seeding: on one
// OS thread the scheduler may run the last-spawned worker until the loop is
// drained, yet every worker still runs its own first index, so one loop
// warms every worker arena.
func TestForArenaEveryWorkerWarmsInFirstLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := New(2)
	p.ForArena(64, func(_ int, a *dsp.Arena) { a.Float(256) })
	if len(p.arenas) != 2 {
		t.Fatalf("pool holds %d arenas, want 2", len(p.arenas))
	}
	for g, a := range p.arenas {
		if a.HighWaterBytes() == 0 {
			t.Errorf("worker %d arena is cold after one width-2 loop", g)
		}
	}
}

// TestForArenaNestedLoopPanics pins the one-arena-loop-per-pool contract: an
// arena loop started inside another on the same pool would share its worker
// arenas, so it panics. Width 1 keeps the panic on the test goroutine.
func TestForArenaNestedLoopPanics(t *testing.T) {
	p := New(1)
	defer func() {
		if r := recover(); r != "parallel: overlapping arena loops on one pool" {
			t.Fatalf("recovered %v, want the overlap panic", r)
		}
		if p.arenasBusy.Load() {
			t.Error("arena loop left the pool marked busy after the panic")
		}
	}()
	p.ForArena(4, func(int, *dsp.Arena) {
		p.ForArena(4, func(int, *dsp.Arena) {})
	})
}
