package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"biscatter/internal/channel"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
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
				Seq:        0,
				ExchangeID: "cf7b22450d8eec26",
				Input: RoundInput{
					Payload:    []byte{0xA5, 0x42},
					UplinkBits: map[int][]bool{0: {true, false, true}, 1: {false}},
					MinChirps:  96,
				},
				Outcomes: []NodeOutcome{
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
				Seq:        1,
				ExchangeID: "0000000000000001",
				Input:      RoundInput{Payload: []byte{0x01}, Scheduled: true, Active: []int{0}},
				Err:        "link open",
			},
		},
		Meta: map[string]string{"scenario": "office"},
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
