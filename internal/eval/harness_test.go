package eval

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tbl := Table{Title: "T", Columns: []string{"a", "long-header"}}
	tbl.AddRow("xxxxxxx", "1")
	tbl.AddRow("y", "2")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatal("missing title")
	}
	// Data rows must be aligned: the second column starts at the same rune
	// offset in each row.
	idx3 := strings.Index(lines[3], "1")
	idx4 := strings.Index(lines[4], "2")
	if idx3 != idx4 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idx3, idx4, out)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tbl := Table{Columns: []string{"a", "b"}}
	tbl.AddRow(`comma,here`, `quote"here`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"comma,here"`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""here"`) {
		t.Fatalf("quote cell not escaped: %s", csv)
	}
}

func TestBERCounter(t *testing.T) {
	var c BERCounter
	if c.Rate() != 0 || c.FloorRate() != 0 {
		t.Fatal("empty counter")
	}
	c.Add(0, 1000)
	if c.Rate() != 0 {
		t.Fatal("zero errors")
	}
	if c.FloorRate() != 1e-3 {
		t.Fatalf("floor rate %v", c.FloorRate())
	}
	c.Add(10, 1000)
	if math.Abs(c.Rate()-10.0/2000) > 1e-12 {
		t.Fatalf("rate %v", c.Rate())
	}
}

func TestParallelMapOrderAndCompleteness(t *testing.T) {
	var calls int64
	out := ParallelMap(100, func(i int) int {
		atomic.AddInt64(&calls, 1)
		return i * i
	})
	if calls != 100 {
		t.Fatalf("fn called %d times", calls)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("index %d has %d", i, v)
		}
	}
	// Degenerate sizes.
	if len(ParallelMap(0, func(i int) int { return i })) != 0 {
		t.Fatal("n=0")
	}
	if out := ParallelMap(1, func(i int) int { return 7 }); out[0] != 7 {
		t.Fatal("n=1")
	}
}

func TestFormatBER(t *testing.T) {
	if got := FormatBER(&BERCounter{}); got != "n/a" {
		t.Fatalf("empty: %q", got)
	}
	if got := FormatBER(&BERCounter{Errors: 0, Total: 1000}); got != "<1.0e-03" {
		t.Fatalf("floor: %q", got)
	}
	if got := FormatBER(&BERCounter{Errors: 5, Total: 1000}); got != "5.0e-03" {
		t.Fatalf("rate: %q", got)
	}
}

func TestResultRenderIncludesNotes(t *testing.T) {
	r := Result{ID: "x", Description: "d", Notes: []string{"hello"}}
	if !strings.Contains(r.Render(), "note: hello") {
		t.Fatal("notes missing")
	}
}
