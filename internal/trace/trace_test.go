package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestKindMismatchRejected pins the header's kind check: a payload framed
// under one kind reads back under that kind and nowhere else.
func TestKindMismatchRejected(t *testing.T) {
	type note struct{ Text string }
	var buf bytes.Buffer
	if err := write(&buf, "note", &note{Text: "hi"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var got note
	if err := read(bytes.NewReader(raw), "note", &got); err != nil || got.Text != "hi" {
		t.Fatalf("same-kind read = %+v, %v", got, err)
	}
	if err := read(bytes.NewReader(raw), "exchange", &got); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("expected ErrBadHeader, got %v", err)
	}
}

func TestGarbageRejected(t *testing.T) {
	if _, err := ReadExchange(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("expected ErrBadHeader, got %v", err)
	}
	if _, err := ReadExchange(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
}

// TestFileRoundTrip covers the file layer's failure paths (the intact
// round trip is TestExchangeRecordFileRoundTrip): a file of another kind is
// rejected by its header, and missing paths fail on both sides.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := sampleRecord()
	var other bytes.Buffer
	if err := write(&other, "if", rec.Spec); err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(dir, "other.bsctrace")
	if err := os.WriteFile(otherPath, other.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadExchange(otherPath); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("other-kind file: expected ErrBadHeader, got %v", err)
	}

	if _, err := LoadExchange(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file should fail")
	}
	if err := SaveExchange(filepath.Join(dir, "no", "such", "dir"), rec); err == nil {
		t.Fatal("save into a missing directory should fail")
	}
}
