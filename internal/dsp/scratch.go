package dsp

// Resize returns a slice of length n, reusing s's backing array when its
// capacity suffices and allocating (with power-of-two capacity, so repeated
// small growth settles quickly) otherwise. The contents are unspecified:
// callers must overwrite or clear every element they read. It is the
// grow-in-place primitive behind the persistent per-object scratch buffers
// (radar rows, decoder envelopes, exchange tables).
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, NextPowerOfTwo(n))
}

// EnsureRows grows rows to at least n entries without ever shrinking: it
// takes back the rows an earlier shorter reslice left in capacity, then
// appends nil rows, so row backing buffers persist across calls. Each row
// is then grown in place with Resize.
func EnsureRows[T any](rows [][]T, n int) [][]T {
	rows = rows[:max(len(rows), min(n, cap(rows)))]
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows
}
