package channel

import (
	"math"
	"strings"
	"testing"
)

// TestLinkValidateTable pins every Validate error case and the fields each
// message names, so the error contract stays stable for callers that surface
// configuration mistakes.
func TestLinkValidateTable(t *testing.T) {
	mod := func(f func(*Link)) Link {
		l := DefaultLink()
		f(&l)
		return l
	}
	cases := []struct {
		name    string
		link    Link
		wantErr string // substring; empty means valid
	}{
		{"default is valid", DefaultLink(), ""},
		{"zero frequency", mod(func(l *Link) { l.Frequency = 0 }), "frequency"},
		{"negative frequency", mod(func(l *Link) { l.Frequency = -9.5e9 }), "frequency"},
		{"zero IF bandwidth", mod(func(l *Link) { l.IFBandwidth = 0 }), "IF bandwidth"},
		{"negative IF bandwidth", mod(func(l *Link) { l.IFBandwidth = -4e6 }), "IF bandwidth"},
		{"frequency checked before bandwidth", mod(func(l *Link) { l.Frequency = 0; l.IFBandwidth = 0 }), "frequency"},
		{"zero value link", Link{}, "frequency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.link.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestOfficeClutterInvariants pins the properties the pipeline relies on:
// the office scene is static, sorted by range, within the radar's operating
// extent, and every reflector produces a finite echo under the default
// budget.
func TestOfficeClutterInvariants(t *testing.T) {
	clutter := OfficeClutter()
	if len(clutter) == 0 {
		t.Fatal("office clutter is empty")
	}
	link := DefaultLink()
	for i, r := range clutter {
		if r.Range <= 0 {
			t.Errorf("reflector %d: range %v must be positive", i, r.Range)
		}
		if r.Range > 10 {
			t.Errorf("reflector %d: range %v m outside a plausible office", i, r.Range)
		}
		if r.Velocity != 0 {
			t.Errorf("reflector %d: static office scene must have zero velocity, got %v", i, r.Velocity)
		}
		if i > 0 && clutter[i-1].Range >= r.Range {
			t.Errorf("reflector %d: ranges must be strictly increasing (%v then %v)",
				i, clutter[i-1].Range, r.Range)
		}
		p := link.EchoPowerDBm(r)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Errorf("reflector %d: echo power %v not finite", i, p)
		}
	}
	// Each call returns a fresh slice: mutating one scene must not leak into
	// the next network's default clutter.
	clutter[0].Range = 99
	if OfficeClutter()[0].Range == 99 {
		t.Error("OfficeClutter returns shared state")
	}
}

// TestDownlinkJSR pins the interference hook: the jammer-to-signal ratio
// of a jammer some margin above the detector noise floor is that margin
// less the downlink SNR, and it grows with distance and jammer power.
func TestDownlinkJSR(t *testing.T) {
	link := DefaultLink()
	const d = 3.0
	jam := link.DetectorNoiseFloorDBm + 30
	if got, want := link.DownlinkJSRdB(d, jam), 30-link.DownlinkSNRdB(d); !approxEq(got, want, 1e-9) {
		t.Errorf("JSR = %v, want margin less SNR %v", got, want)
	}
	if got := link.DownlinkJSRdB(d, jam) - link.DownlinkJSRdB(d, jam-10); !approxEq(got, 10, 1e-9) {
		t.Errorf("10 dB more jammer raised JSR by %v dB", got)
	}
	// JSR grows with distance: the signal weakens, the jammer does not.
	if link.DownlinkJSRdB(5, jam) <= link.DownlinkJSRdB(1, jam) {
		t.Error("JSR must grow with distance")
	}
}
