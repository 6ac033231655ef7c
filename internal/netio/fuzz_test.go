package netio

import (
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the wire decoder: it must never
// panic, and anything it accepts must re-marshal losslessly.
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: frames of the retired wire types 1–4 (which must be
	// rejected), then every session message, each whole and truncated.
	seeds := append(retiredMessages(),
		&Hello{Version: ProtocolVersion, TagID: 4, SessionID: 9},
		&HelloAck{Code: HelloAccept, SessionID: 9, NextRound: 1,
			HeartbeatMillis: 200, Reason: "r"},
		&Heartbeat{SessionID: 9},
		&SubmitRound{SessionID: 9, Round: 1, BitCount: 3, Bits: []byte{0b10100000}},
		&RoundResult{SessionID: 9, Round: 1, Status: RoundOK, Outcome: Outcome{
			DownlinkPayload: []byte{7}, DetectionRange: 4.9, DetectionBin: 3,
			DetectionSNRdB: 31, UplinkBits: []bool{true, false}, UplinkErr: "e"}},
		&Goodbye{SessionID: 9},
		&Evict{SessionID: 9, Reason: "gone"},
	)
	for _, m := range seeds {
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("BSC1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must survive a marshal/unmarshal round trip.
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v", err)
		}
		if _, err := Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled message failed to parse: %v", err)
		}
	})
}
