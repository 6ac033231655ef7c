package dsp

import "testing"

func TestResize(t *testing.T) {
	s := Resize[float64](nil, 10)
	if len(s) != 10 || cap(s) != 16 {
		t.Fatalf("Resize(nil, 10): len=%d cap=%d, want 10/16", len(s), cap(s))
	}
	s[3] = 42
	grown := Resize(s, 12)
	if len(grown) != 12 || &grown[0] != &s[0] {
		t.Fatalf("Resize within capacity must reuse the backing array")
	}
	shrunk := Resize(grown, 4)
	if len(shrunk) != 4 || &shrunk[0] != &s[0] {
		t.Fatalf("Resize shrink must reuse the backing array")
	}
	big := Resize(shrunk, 100)
	if len(big) != 100 || cap(big) != 128 {
		t.Fatalf("Resize growth: len=%d cap=%d, want 100/128", len(big), cap(big))
	}
	empty := Resize(big, 0)
	if len(empty) != 0 {
		t.Fatalf("Resize to 0 should have length 0")
	}
}

func TestEnsureRows(t *testing.T) {
	rows := EnsureRows[float64](nil, 3)
	if len(rows) != 3 {
		t.Fatalf("EnsureRows(nil, 3): len=%d, want 3", len(rows))
	}
	rows[2] = Resize(rows[2], 8)
	if got := EnsureRows(rows, 2); len(got) != 3 {
		t.Fatalf("EnsureRows must not shrink: len=%d, want 3", len(got))
	}
	// A shorter reslice gives its rows back on the next growth, buffers and all.
	short := EnsureRows(rows[:1], 3)
	if len(short) != 3 || len(short[2]) != 8 {
		t.Fatalf("EnsureRows dropped a row left in capacity: len=%d, row 2 len=%d", len(short), len(short[2]))
	}
}
