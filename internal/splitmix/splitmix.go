// Package splitmix is the one stateless hash behind every deterministic
// draw in the module: exchange IDs, fault-injection decisions, network-fault
// decisions and retry jitter. A draw keyed by (seed, stream, index) depends
// on nothing else, so it is the same at any worker count and on every run,
// and giving each consumer its own stream keeps enabling one from shifting
// another's decisions.
package splitmix

// Gamma is splitmix64's increment, the 64-bit golden ratio.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Bits returns 64 independent-looking bits for (seed, stream, idx).
func Bits(seed int64, stream, idx uint64) uint64 {
	h := Mix(uint64(seed))
	h = Mix(h ^ stream*0xd6e8feb86659fd93)
	return Mix(h ^ idx)
}

// Uniform returns a deterministic draw in [0, 1) for (seed, stream, idx).
func Uniform(seed int64, stream, idx uint64) float64 {
	return float64(Bits(seed, stream, idx)>>11) / (1 << 53)
}
