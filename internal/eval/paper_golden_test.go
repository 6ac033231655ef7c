package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePaper = flag.Bool("update", false, "rewrite testdata/paper.golden")

// TestPaperGolden pins what the sixteen paper experiments (Registry order,
// fig5 through scenarios) print at the default options, byte for byte: each
// Render followed by a blank line, which is biscatter-sim's output without
// its "[… completed in …]" lines. Run with -update to regenerate after an
// intentional change, and refresh EXPERIMENTS.md from the new file.
func TestPaperGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the paper golden runs in its own non-race CI step (see race_on_test.go)")
	}
	var b strings.Builder
	for _, e := range Registry {
		res, err := e.Run(Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(res.Render())
		b.WriteByte('\n')
		if e.ID == "scenarios" {
			break
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "paper.golden")
	if *updatePaper {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run go test -run TestPaperGolden -update ./internal/eval): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("%s differs at line %d:\n got: %q", path, i+1, gotLines[i])
		}
	}
	t.Fatalf("%s has %d lines, the rendering %d", path, len(wantLines), len(gotLines))
}
