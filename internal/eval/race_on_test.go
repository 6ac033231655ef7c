//go:build race

package eval

// raceEnabled reports whether this binary was built with -race. The paper
// golden skips under the race detector: it renders the sixteen paper
// experiments at 11× the plain cost (64 s against 5.6 s on a 2-vCPU host)
// and races no sweep path the worker-invariance suites do not already
// race. CI runs it in its own non-race step.
const raceEnabled = true
