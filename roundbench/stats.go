package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile before
// it may be reported: a p90 over 40 samples rests on four values, which is
// noise, so it is not printed.
const minTail = 10

// reportable reports whether the p-th percentile (0 < p < 100) of n samples
// has at least minTail samples beyond it.
func reportable(n int, p float64) bool {
	return n-rank(n, p) >= minTail
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. The slack keeps p·n/100 from rounding up past an exact
// integer (99.9·10000/100 is 9990.000000000002 in floating point).
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailPercentile returns the highest of the candidate percentiles that n
// samples can support, or 0 when not even the median can be reported.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if reportable(n, p) {
			return p
		}
	}
	return 0
}

// dist collects one timing's samples, in milliseconds.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(ms float64) {
	d.vals = append(d.vals, ms)
	d.sorted = false
}

func (d *dist) addDur(t time.Duration) { d.add(float64(t) / 1e6) }

func (d *dist) n() int { return len(d.vals) }

// quantile returns the p-th percentile by nearest rank (0 for no samples).
func (d *dist) quantile(p float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return d.vals[rank(len(d.vals), p)-1]
}

// tail returns the p90 when the sample count supports it under the
// percentile rule; otherwise it returns the largest sample and false, so
// callers can flag the value instead of presenting noise as a percentile.
func (d *dist) tail() (float64, bool) {
	if reportable(d.n(), 90) {
		return d.quantile(90), true
	}
	if d.n() == 0 {
		return 0, false
	}
	return d.quantile(100), false
}

// describe renders the median and the highest reportable percentile with
// the sample count, e.g. "p50 32.1 p99 40.2 (n=1200)".
func (d *dist) describe() string {
	p := tailPercentile(d.n())
	switch {
	case d.n() == 0:
		return "(n=0)"
	case p == 0:
		return fmt.Sprintf("p50 %.4g (n=%d, too few for any percentile)", d.quantile(50), d.n())
	case p == 50:
		return fmt.Sprintf("p50 %.4g (n=%d)", d.quantile(50), d.n())
	default:
		return fmt.Sprintf("p50 %.4g p%g %.4g (n=%d)", d.quantile(50), p, d.quantile(p), d.n())
	}
}

// ratio is a count of useful outcomes over attempts. Both are kept so the
// base of every ratio can be printed next to it.
type ratio struct {
	ok, of int
}

func (r *ratio) count(ok bool) {
	r.of++
	if ok {
		r.ok++
	}
}

// value returns ok/of; with no attempts there is nothing to miss, so it is 0.
func (r ratio) value() float64 {
	if r.of == 0 {
		return 0
	}
	return float64(r.ok) / float64(r.of)
}

func (r ratio) String() string { return fmt.Sprintf("%d/%d", r.ok, r.of) }

// median of a small float slice (the set-up samples); the slice is sorted
// in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
