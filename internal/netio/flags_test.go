package netio

import (
	"flag"
	"testing"
)

// TestServiceFlagParity pins that all three binaries' FlagSets (each built
// through RegisterServiceFlags, as biscatter-radar, biscatter-tag and
// biscatter-sim do) expose identical shared flags: same names, defaults
// and usage — including the transport and frame-scheduling flags the
// scaled gateway added.
func TestServiceFlagParity(t *testing.T) {
	sets := map[string]*flag.FlagSet{
		"biscatter-radar": flag.NewFlagSet("biscatter-radar", flag.ContinueOnError),
		"biscatter-tag":   flag.NewFlagSet("biscatter-tag", flag.ContinueOnError),
		"biscatter-sim":   flag.NewFlagSet("biscatter-sim", flag.ContinueOnError),
	}
	for _, fs := range sets {
		RegisterServiceFlags(fs)
		RegisterNetFaultFlags(fs)
	}
	ref := sets["biscatter-radar"]

	for _, name := range []string{
		"listen", "connect", "heartbeat", "session-timeout",
		"transport", "frame-capacity", "frame-timeout",
		"net-seed", "net-drop", "net-duplicate", "net-reorder",
		"net-corrupt", "net-delay", "net-max-delay",
	} {
		rf := ref.Lookup(name)
		if rf == nil {
			t.Fatalf("flag -%s missing from reference set", name)
		}
		for bin, fs := range sets {
			f := fs.Lookup(name)
			if f == nil {
				t.Fatalf("flag -%s missing from %s", name, bin)
			}
			if f.DefValue != rf.DefValue {
				t.Errorf("-%s default differs: %s %q, reference %q", name, bin, f.DefValue, rf.DefValue)
			}
			if f.Usage != rf.Usage {
				t.Errorf("-%s usage differs: %s %q, reference %q", name, bin, f.Usage, rf.Usage)
			}
		}
	}
}

// TestServiceFlagParsing checks values land in the struct.
func TestServiceFlagParsing(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := RegisterServiceFlags(fs)
	if err := fs.Parse([]string{
		"-listen", "127.0.0.1:9100", "-heartbeat", "150ms", "-session-timeout", "3s",
		"-transport", "tcp", "-frame-capacity", "4", "-frame-timeout", "500ms",
	}); err != nil {
		t.Fatal(err)
	}
	if sf.Listen != "127.0.0.1:9100" || sf.Heartbeat.String() != "150ms" || sf.SessionTimeout.String() != "3s" {
		t.Fatalf("parsed %+v", sf)
	}
	if sf.Transport != TransportTCP || sf.FrameCapacity != 4 || sf.FrameTimeout.String() != "500ms" {
		t.Fatalf("parsed %+v", sf)
	}
	if sf.Connect != "" {
		t.Fatalf("connect default should be empty, got %q", sf.Connect)
	}
}

// TestServiceFlagDefaults pins that a default parse yields the UDP
// transport and no frame-scheduling overrides — the pre-scaling behavior.
func TestServiceFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := RegisterServiceFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sf.Transport != TransportUDP {
		t.Fatalf("default transport %q, want %q", sf.Transport, TransportUDP)
	}
	if sf.FrameCapacity != 0 || sf.FrameTimeout != 0 {
		t.Fatalf("frame defaults %+v", sf)
	}
}
