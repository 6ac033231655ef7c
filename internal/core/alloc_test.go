package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocTestNetwork builds a small workers=1 network for allocation pins:
// AllocsPerRun forces GOMAXPROCS=1, so the serial path is the one measured,
// and the short two-node frame keeps each exchange fast enough to repeat.
func allocTestNetwork(t testing.TB) (*Network, []byte, map[int][]bool) {
	t.Helper()
	n, err := NewNetwork(Config{
		Nodes: []NodeConfig{
			{ID: 1, Range: 2.0, ModulationF0: 1000, ModulationF1: 1600},
			{ID: 2, Range: 3.5, ModulationF0: 2200, ModulationF1: 2800},
		},
		Seed:         99,
		ChirpsPerBit: 16,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xA5}
	uplink := map[int][]bool{0: {true, false}, 1: {false, true}}
	return n, payload, uplink
}

// TestExchangeSteadyStateAllocs pins the tentpole: after warm-up, a full
// exchange round must run in a bounded (small) number of heap allocations.
// Persistent scratch (per-object buffers and per-worker rows grown with
// dsp.Resize) keeps the per-chirp and per-bin hot loops allocation-free;
// what remains is the per-exchange result assembly (frame, ExchangeResult,
// decoded payloads/bits) plus a handful of boxed values. The pipeline
// before reusable scratch spent ~11.5k allocations per exchange on the
// bench workload; the pin below is the regression tripwire for the ≥10×
// floor.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	n, payload, uplink := allocTestNetwork(t)
	for i := 0; i < 3; i++ {
		if _, err := n.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := n.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Exchange: %.0f allocs/op", allocs)
	// Measured ~45 allocs/op on this workload; the pin leaves headroom for
	// runtime variation while staying two orders of magnitude under the
	// count without reusable scratch.
	const pin = 120
	if allocs > pin {
		t.Fatalf("steady-state Exchange allocated %.0f times, pin is %d", allocs, pin)
	}
}

// TestExchangeVaryingPayloadAllocs is the steady-state pin under payloads
// that change every round. The pin above reuses one payload, so it cannot
// see a cache that grows the first time a symbol appears: here every
// measured exchange sends a fresh random payload, the rounds continue until
// every data symbol has been on the air, and the radar's phasor and chirp-z
// caches, filled at construction for the whole alphabet, must not grow.
func TestExchangeVaryingPayloadAllocs(t *testing.T) {
	n, _, uplink := allocTestNetwork(t)
	cacheBytes := n.Radar().CacheBytes()
	if cacheBytes == 0 {
		t.Fatal("NewNetwork left the radar's caches empty")
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 8)
	seen := map[float64]bool{}
	exchange := func() {
		rng.Read(payload)
		res, err := n.Exchange(payload, uplink)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Frame.Chirps {
			seen[c.Params.Duration] = true
		}
	}
	exchange()
	want := n.Alphabet().DataSymbolCount() + 2 // plus the header and sync
	const pin = 120
	var worst float64
	round := 0
	for ; len(seen) < want; round++ {
		if round == 50 {
			t.Fatalf("%d of %d chirp durations on the air after %d rounds", len(seen), want, round)
		}
		// AllocsPerRun warms up with one call of its own; each call draws
		// a fresh payload, so the measured exchange still sends a new one.
		allocs := testing.AllocsPerRun(1, exchange)
		if allocs > pin {
			t.Fatalf("round %d: Exchange with a fresh payload allocated %.0f times, pin is %d", round, allocs, pin)
		}
		worst = max(worst, allocs)
	}
	t.Logf("every symbol on the air after %d rounds; at most %.0f allocs per exchange", round, worst)
	if got := n.Radar().CacheBytes(); got != cacheBytes {
		t.Fatalf("radar caches went from %d B at construction to %d B", cacheBytes, got)
	}
}

// TestExchangeScratchFootprintStabilizes is the byte-level leak test: over
// 100 steady-state exchanges the total heap bytes allocated per round must
// stay flat and small — the scratch buffers and per-worker rows reach their
// high-water marks during warm-up and are reused verbatim afterwards.
func TestExchangeScratchFootprintStabilizes(t *testing.T) {
	n, payload, uplink := allocTestNetwork(t)
	for i := 0; i < 5; i++ {
		if _, err := n.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if _, err := n.Exchange(payload, uplink); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("steady-state Exchange: %d B/op", perRound)
	// The pipeline without reusable scratch allocated tens of MB per
	// exchange; measured steady state is ~11 KB per round (results +
	// residual boxing), so any scratch leak blows through this bound
	// quickly.
	if perRound > 128<<10 {
		t.Fatalf("steady-state Exchange allocates %d B per round; scratch is leaking", perRound)
	}
}
