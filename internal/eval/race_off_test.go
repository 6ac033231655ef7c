//go:build !race

package eval

// raceEnabled reports whether this binary was built with -race; see
// race_on_test.go for why the paper golden needs to know.
const raceEnabled = false
