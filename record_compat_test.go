package biscatter

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/trace"
)

// legacySpec is trace.ExchangeSpec as record files carried it while the
// tag's chirp floor, delay-line ΔL, Δf_int, ADC rate and decoder method
// were still network settings.
type legacySpec struct {
	Preset           fmcw.Preset
	Period           float64
	SymbolBits       int
	HeaderChirps     int
	SyncChirps       int
	FEC              fec.Config
	MinChirpDuration float64
	DeltaL           float64
	MinBeatSpacing   float64
	ChirpsPerBit     int
	Nodes            []trace.NodeSpec
	ScheduleCapacity int
	Clutter          []channel.Reflector
	Faults           *fault.Profile
	Seed             int64
	TagSampleRate    float64
	DecoderMethod    int
	NetworkID        int
}

type legacyRecord struct {
	Spec   legacySpec
	Rounds []trace.RoundRecord
	Meta   map[string]string
}

// TestLegacyRecordReplays pins the record format across the retirement of
// those five fields: a file whose spec still holds them at the values every
// program wrote (20 µs, 45 in, 500 Hz, 1 MHz, Goertzel) must load through
// LoadExchangeRecord and replay with no mismatch, and decode to the same
// record as the current format. The file also carries the free-form Meta
// annotations records held until version 2, which decoding skips.
func TestLegacyRecordReplays(t *testing.T) {
	net, err := NewNetwork(Config{
		Nodes: []NodeConfig{{ID: 1, Range: 2.6}, {ID: 2, Range: 4.1}},
		Seed:  41,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewExchangeRecorder(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		bits := map[int][]bool{0: {true, i == 0, false}, 1: {i == 1, true}}
		if _, err := rec.Exchange([]byte{0xB5, byte(i)}, bits); err != nil {
			t.Fatal(err)
		}
	}
	live := rec.Record()
	s := live.Spec
	old := legacyRecord{
		Spec: legacySpec{
			Preset: s.Preset, Period: s.Period, SymbolBits: s.SymbolBits,
			HeaderChirps: s.HeaderChirps, SyncChirps: s.SyncChirps, FEC: s.FEC,
			MinChirpDuration: 20e-6, DeltaL: 1.143, MinBeatSpacing: 500,
			ChirpsPerBit: s.ChirpsPerBit, Nodes: s.Nodes,
			ScheduleCapacity: s.ScheduleCapacity, Clutter: s.Clutter,
			Faults: s.Faults, Seed: s.Seed, TagSampleRate: 1e6,
			DecoderMethod: 0, NetworkID: s.NetworkID,
		},
		Rounds: live.Rounds,
		Meta:   map[string]string{"tool": "biscatter-sim record"},
	}

	dir := t.TempDir()
	legacyPath := filepath.Join(dir, "legacy.bsctrace")
	f, err := os.Create(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	header := struct {
		Magic   string
		Version int
		Kind    string
	}{"BSCTRACE", 2, "exchange"}
	if err := enc.Encode(header); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadExchangeRecord(legacyPath)
	if err != nil {
		t.Fatalf("legacy record does not load: %v", err)
	}
	currentPath := filepath.Join(dir, "current.bsctrace")
	if err := SaveExchangeRecord(currentPath, live); err != nil {
		t.Fatal(err)
	}
	current, err := LoadExchangeRecord(currentPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, current) {
		t.Fatal("legacy record decodes differently from the current format")
	}

	report, err := ReplayRecord(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != len(live.Rounds) || !report.OK() {
		t.Fatalf("legacy replay: %d of %d rounds, mismatches %v", report.Rounds, len(live.Rounds), report.Mismatches)
	}
}
