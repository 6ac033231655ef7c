// Package eval is the experiment harness that regenerates every table and
// figure of the paper's evaluation: deterministic seeded sweeps with
// parallel workers, BER accumulators with confidence intervals, and
// text/CSV rendering of result tables and series.
package eval

import (
	"fmt"
	"strings"

	"biscatter/internal/parallel"
)

// Table is a rendered result table.
type Table struct {
	// Title names the table.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold pre-formatted cells.
	Rows [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len([]rune(c)); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "fig12").
	ID string
	// Description says what the paper artifact is.
	Description string
	// Tables hold the regenerated rows.
	Tables []Table
	// Notes record paper-vs-measured observations.
	Notes []string
}

// Render returns the result as text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Description)
	for i := range r.Tables {
		b.WriteString(r.Tables[i].Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// BERCounter accumulates bit errors.
type BERCounter struct {
	// Errors and Total are the accumulated counts.
	Errors, Total int
}

// Add accumulates errs out of total bits.
func (c *BERCounter) Add(errs, total int) {
	c.Errors += errs
	c.Total += total
}

// Rate returns the bit error rate (0 when no bits were counted).
func (c *BERCounter) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Total)
}

// FloorRate returns the BER clamped below by the measurement floor 1/Total,
// useful for log-scale reporting of zero-error runs.
func (c *BERCounter) FloorRate() float64 {
	if c.Total == 0 {
		return 0
	}
	if c.Errors == 0 {
		return 1 / float64(c.Total)
	}
	return c.Rate()
}

// ParallelMap runs fn over indices 0..n-1 on all cores and returns the
// results in order. fn must be safe to call concurrently; determinism comes
// from per-index seeds, not execution order.
func ParallelMap[T any](n int, fn func(i int) T) []T {
	return ParallelMapN(0, n, fn)
}

// ParallelMapN is ParallelMap with an explicit worker count (non-positive
// selects all cores). It is the harness's view of the shared worker-pool
// layer: sweep points and trials fan out over it with per-index seeds, so
// the rendered tables are identical for any worker count.
func ParallelMapN[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	parallel.New(workers).For(n, func(i int) { out[i] = fn(i) })
	return out
}

// FormatBER renders a BER for tables ("<1.0e-04" at the measurement floor).
func FormatBER(c *BERCounter) string {
	if c.Total == 0 {
		return "n/a"
	}
	if c.Errors == 0 {
		return fmt.Sprintf("<%.1e", 1/float64(c.Total))
	}
	return fmt.Sprintf("%.1e", c.Rate())
}
