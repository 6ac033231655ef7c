package trace

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/netio"
)

func sampleRecord() *ExchangeRecord {
	return &ExchangeRecord{
		Spec: ExchangeSpec{
			Preset:       fmcw.Radar9GHz(),
			Period:       120e-6,
			SymbolBits:   5,
			HeaderChirps: 8,
			SyncChirps:   2,
			FEC:          fec.Config{Scheme: fec.SchemeHamming74, InterleaveDepth: 4},
			ChirpsPerBit: 32,
			Nodes: []NodeSpec{
				{ID: 1, Range: 3, ModulationF0: 1000, ModulationF1: 1500},
				{ID: 2, Range: 5, ModulationF0: 2000, ModulationF1: 2500},
			},
			ScheduleCapacity: 0,
			Clutter:          channel.OfficeClutter(),
			Faults: &fault.Profile{
				Name:         "test",
				Seed:         7,
				Interference: &fault.Interference{DutyCycle: 0.2, RadarPowerDBm: -30},
			},
			Seed: 2024,
		},
		Rounds: []RoundRecord{
			{
				ExchangeID: "cf7b22450d8eec26",
				Input: RoundInput{
					Payload:    []byte{0xA5, 0x42},
					UplinkBits: [][]bool{{true, false, true}, {false}},
					MinChirps:  96,
				},
				Outcomes: []netio.Outcome{
					{
						DownlinkPayload: []byte{0xA5, 0x42},
						DetectionRange:  3.01,
						DetectionBin:    12,
						DetectionSNRdB:  18.5,
						UplinkBits:      []bool{true, false, true},
					},
					{
						DownlinkErr:  "sync not found",
						DetectionErr: "no peak",
						UplinkErr:    "below threshold",
					},
				},
			},
			{
				ExchangeID: "0000000000000001",
				Input:      RoundInput{Payload: []byte{0x01}, Scheduled: true, Active: []int{0}},
				Err:        "link open",
			},
		},
	}
}

func TestExchangeRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	if err := WriteExchange(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadExchange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip mutated record:\nwrote %+v\nread  %+v", rec, back)
	}
}

func TestExchangeRecordFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/exchange.bsctrace"
	rec := sampleRecord()
	if err := SaveExchange(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := LoadExchange(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatal("file round trip mutated record")
	}
}

// TestExchangeRecordRejectsWrongKind: a well-formed record framed under
// another kind must not decode as an exchange record.
func TestExchangeRecordRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := write(&buf, "envelope", sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExchange(&buf); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("wrong-kind read error = %v, want ErrBadHeader", err)
	}
}

// TestExchangeRecordBytesReproducible encodes one record whose round holds
// four nodes' uplink bits fifty times: every encoding must be the same
// bytes. The record holds no maps, whose entries gob writes in random order.
func TestExchangeRecordBytesReproducible(t *testing.T) {
	rec := sampleRecord()
	rec.Rounds[0].Input.UplinkBits = [][]bool{{true}, {false, true}, {true, true, false}, {false}}
	var first bytes.Buffer
	if err := WriteExchange(&first, rec); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		var buf bytes.Buffer
		if err := WriteExchange(&buf, rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestExchangeRecordBytesIgnoreOtherGobTypes: gob numbers types in the
// order a process first sends them, and writes the numbers into the
// stream. A child process gob-encodes an unrelated type before its first
// record; the record it writes must still be this process's bytes.
func TestExchangeRecordBytesIgnoreOtherGobTypes(t *testing.T) {
	if path := os.Getenv("TRACE_RECORD_CHILD_OUT"); path != "" {
		type unrelated struct{ A, B int }
		if err := gob.NewEncoder(io.Discard).Encode(unrelated{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := SaveExchange(path, sampleRecord()); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "child.bsctrace")
	cmd := exec.Command(os.Args[0], "-test.run=^TestExchangeRecordBytesIgnoreOtherGobTypes$")
	cmd.Env = append(os.Environ(), "TRACE_RECORD_CHILD_OUT="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteExchange(&want, sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("a process that gob-encoded another type first wrote different record bytes")
	}
}

// TestExchangeRecordRejectsVersion1: version 1 records held maps, and are
// refused by their header rather than decoded.
func TestExchangeRecordRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(header{Magic: magic, Version: 1, Kind: "exchange"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExchange(&buf); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("version 1 read error = %v, want ErrBadHeader", err)
	}
}
