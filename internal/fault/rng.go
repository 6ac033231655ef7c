package fault

import (
	"math"

	"biscatter/internal/splitmix"
)

// The fault layer draws all of its randomness from the stateless
// splitmix hash keyed by (seed, stream, index) instead of from the
// pipeline's seeded sequential generators. That buys three properties the
// conformance suite pins:
//
//   - order independence: an injection decision for chirp i never depends on
//     how many goroutines processed chirps before it, so results stay
//     byte-identical at any worker count;
//   - stream isolation: the channel/tag/radar noise realizations are
//     untouched whether faults are on or off, so an intensity sweep varies
//     only the impairment, never the underlying noise draw;
//   - per-seed reproducibility: every injector replays exactly from its
//     profile seed.

// Independent draw streams. Each impairment owns one so enabling an
// injector never shifts another's decisions.
const (
	streamGatePhase uint64 = 1 // interference on/off gate alignment
	streamJamPhase  uint64 = 2 // per-chirp jam tone phase
	streamDropout   uint64 = 3 // per-chirp dropout decisions
	streamDrift     uint64 = 4 // per-chirp oscillator jitter
	streamDesync    uint64 = 5 // per-capture start-offset jitter
)

// norm returns a deterministic standard normal draw (Box–Muller; each idx
// consumes two hash points so adjacent indices stay independent).
func norm(seed int64, stream, idx uint64) float64 {
	u1 := splitmix.Uniform(seed, stream, 2*idx)
	u2 := splitmix.Uniform(seed, stream, 2*idx+1)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
