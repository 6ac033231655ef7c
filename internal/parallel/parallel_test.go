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

// TestForArenaOverlappingLoops drives two arena loops on the same pool from
// concurrent goroutines under -race: the second loop must fall back to
// borrowed spare arenas rather than sharing the pool-owned set.
func TestForArenaOverlappingLoops(t *testing.T) {
	p := New(2)
	start := make(chan struct{})
	done := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func() {
			<-start
			for rep := 0; rep < 20; rep++ {
				p.ForArena(100, func(i int, a *dsp.Arena) {
					f := a.Float(64)
					for j := range f {
						f[j] = float64(i + j)
					}
				})
			}
			done <- struct{}{}
		}()
	}
	close(start)
	<-done
	<-done
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

// TestForArenaNestedFanOutFootprintBounded pins the overlapping-checkout
// contract: an inner ForArena issued from inside an outer ForArena body
// finds the pool's own arenas checked out and must borrow package spares
// instead. The inner loop's (larger) checkouts therefore never inflate
// ArenaFootprintBytes — the pool-owned footprint stays at the outer loop's
// high-water mark no matter how often the nested fan-out runs.
func TestForArenaNestedFanOutFootprintBounded(t *testing.T) {
	// Width 1 makes the pool-owned arena set deterministic (a wider pool
	// warms its arenas in scheduler order, so the footprint baseline races
	// the warm-up); the nested borrow path is identical at any width.
	p := New(1)
	// Reach the outer loop's steady-state high-water mark first.
	for i := 0; i < 2; i++ {
		p.ForArena(8, func(_ int, a *dsp.Arena) { a.Float(256) })
	}
	base := p.ArenaFootprintBytes()
	if base == 0 {
		t.Fatal("pool arena footprint should be nonzero after warm-up")
	}
	for iter := 0; iter < 20; iter++ {
		p.ForArena(8, func(i int, a *dsp.Arena) {
			outer := a.Float(256)
			outer[0] = float64(i)
			// Nested fan-out with checkouts far beyond the outer loop's:
			// these must land in borrowed spares, not the pool's arenas.
			p.ForArena(4, func(j int, inner *dsp.Arena) {
				f := inner.Float(8192)
				f[0] = float64(i + j)
			})
			if outer[0] != float64(i) {
				t.Errorf("outer checkout clobbered by nested loop at i=%d", i)
			}
		})
	}
	if got := p.ArenaFootprintBytes(); got != base {
		t.Fatalf("nested fan-out inflated pool footprint: %d before, %d after", base, got)
	}
}
