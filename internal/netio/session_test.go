package netio

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// sessionMessages is one populated sample of every session-plane message.
func sessionMessages() []Message {
	return []Message{
		&Hello{Version: ProtocolVersion, TagID: 3, SessionID: 77},
		&HelloAck{Code: HelloResume, SessionID: 77, NextRound: 5,
			HeartbeatMillis: 200, Reason: "welcome back"},
		&Heartbeat{SessionID: 77},
		&SubmitRound{SessionID: 77, Round: 5, BitCount: 5, Bits: []byte{0b10110000}},
		&RoundResult{SessionID: 77, Round: 5, Status: RoundOK, Outcome: Outcome{
			DownlinkPayload: []byte{0xAA, 0x55},
			DetectionRange:  4.972, DetectionBin: 12, DetectionSNRdB: 33.1,
			UplinkBits: []bool{true, false, true, true},
			UplinkErr:  "radar: weak tone",
		}},
		&Goodbye{SessionID: 77},
		&Evict{SessionID: 77, Reason: "heartbeat deadline passed"},
	}
}

func TestSessionMessagesRoundTrip(t *testing.T) {
	for _, m := range sessionMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v round trip:\nsent %+v\ngot  %+v", m.Type(), m, got)
		}
	}
}

// TestSessionMessagesTruncation chops every prefix off every session
// message: the decoder must reject each one (the CRC check catches most;
// the length checks catch the rest) and never panic.
func TestSessionMessagesTruncation(t *testing.T) {
	for _, m := range sessionMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(buf); n++ {
			if _, err := Unmarshal(buf[:n]); err == nil {
				t.Fatalf("%v truncated to %d/%d bytes still parsed", m.Type(), n, len(buf))
			}
		}
	}
}

// TestSessionMessagesCorruption flips single bits across every session
// message: every flip must be rejected (CRC over everything past the
// magic; magic flips fail the magic check).
func TestSessionMessagesCorruption(t *testing.T) {
	for _, m := range sessionMessages() {
		good, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		f := func(pos uint16, bit uint8) bool {
			buf := append([]byte(nil), good...)
			buf[int(pos)%len(buf)] ^= 1 << (bit % 8)
			_, err := Unmarshal(buf)
			return err != nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
	}
}

// TestSessionPayloadTrailingBytesRejected pins the exact-consumption rule:
// a session payload with extra bytes after its fields is truncated-class
// garbage, not silently accepted.
func TestSessionPayloadTrailingBytesRejected(t *testing.T) {
	g := &Goodbye{SessionID: 1}
	if err := g.decodePayload(append(g.appendPayload(nil), 0xFF)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing bytes: %v", err)
	}
	if err := g.decodePayload(g.appendPayload(nil)[:7]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: %v", err)
	}
}

func TestSubmitRoundBitsRoundTrip(t *testing.T) {
	bits := []bool{true, false, false, true, true, false, true, false, true}
	s := &SubmitRound{SessionID: 1, Round: 3}
	s.SetBits(bits)
	buf, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(*SubmitRound).GetBits(), bits) {
		t.Fatalf("bits round trip: %v", got.(*SubmitRound).GetBits())
	}
	// An inconsistent bit count must be rejected.
	s.BitCount = 100
	buf, err = Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("bit count exceeding packed bytes should fail")
	}
}

// TestOutcomeEqual pins the one outcome comparison: equal outcomes have no
// differing fields, and each single-field change is reported under that
// field's name.
func TestOutcomeEqual(t *testing.T) {
	a := Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.5, UplinkBits: []bool{true}}
	if d := a.Diff(a); d != nil {
		t.Fatalf("identical outcomes differ: %v", d)
	}
	cases := []struct {
		b     Outcome
		field string
	}{
		{Outcome{DownlinkPayload: []byte{2}, DetectionRange: 2.5, UplinkBits: []bool{true}}, "downlink_payload"},
		{Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.6, UplinkBits: []bool{true}}, "detection"},
		{Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.5, UplinkBits: []bool{false}}, "uplink_bits"},
		{Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.5, UplinkBits: []bool{true, true}}, "uplink_bits"},
		{Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.5, UplinkBits: []bool{true}, UplinkErr: "x"}, "uplink_err"},
		{Outcome{DownlinkPayload: []byte{1}, DetectionRange: 2.5, UplinkBits: []bool{true}, Err: "x"}, "err"},
	}
	for i, c := range cases {
		if d := a.Diff(c.b); len(d) != 1 || d[0].Field != c.field {
			t.Fatalf("case %d: diff %v, want one %s field", i, d, c.field)
		}
	}
}

func TestSessionTypeStrings(t *testing.T) {
	want := map[MsgType]string{
		TypeHello: "hello", TypeHelloAck: "hello-ack", TypeHeartbeat: "heartbeat",
		TypeSubmitRound: "submit-round", TypeRoundResult: "round-result",
		TypeGoodbye: "goodbye", TypeEvict: "evict",
	}
	for typ, name := range want {
		if typ.String() != name {
			t.Fatalf("%d: got %q want %q", typ, typ.String(), name)
		}
	}
	if HelloAccept.String() != "accept" || HelloCode(9).String() != "HelloCode(9)" {
		t.Fatal("HelloCode strings")
	}
	if RoundOK.String() != "ok" || RoundStatus(9).String() != "RoundStatus(9)" {
		t.Fatal("RoundStatus strings")
	}
	if !HelloResume.Accepted() || HelloRejectVersion.Accepted() {
		t.Fatal("HelloCode.Accepted")
	}
}
