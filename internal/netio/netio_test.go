package netio

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// rawMessage frames an arbitrary body under an arbitrary wire type, so
// tests can put bytes on the wire that no real message would produce.
type rawMessage struct {
	typ  MsgType
	body []byte
}

func (m rawMessage) Type() MsgType                   { return m.typ }
func (m rawMessage) appendPayload(dst []byte) []byte { return append(dst, m.body...) }
func (m rawMessage) decodePayload([]byte) error      { return nil }

// retiredMessages frames one body for each retired wire type 1–4, sized so
// that the retired decoders (frame descriptor, tag report, modulation plan,
// command) would each have accepted it.
func retiredMessages() []Message {
	return []Message{
		rawMessage{1, make([]byte, 48)},
		rawMessage{2, make([]byte, 16)},
		rawMessage{3, make([]byte, 27)},
		rawMessage{4, make([]byte, 18)},
	}
}

// sampleResult is a RoundResult exercising every field kind on the wire:
// integers, floats, strings, byte strings and packed bits.
func sampleResult() *RoundResult {
	return &RoundResult{SessionID: 7, Round: 3, Status: RoundOK, Outcome: Outcome{
		DownlinkPayload: []byte{1, 2, 3},
		DetectionRange:  2.6, DetectionBin: 9, DetectionSNRdB: 18.5,
		UplinkBits: []bool{true, false, true},
		UplinkErr:  "weak tone",
	}}
}

// TestMarshalUnmarshalAllTypes round-trips one message of every type the
// decoder accepts, and checks the sample set covers all of them.
func TestMarshalUnmarshalAllTypes(t *testing.T) {
	covered := map[MsgType]bool{}
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
		covered[m.Type()] = true
	}
	for typ := 0; typ < 256; typ++ {
		buf, err := Marshal(rawMessage{MsgType(typ), nil})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(buf); !errors.Is(err, ErrUnknownType) && !covered[MsgType(typ)] {
			t.Errorf("decoder knows %v but no sample message covers it", MsgType(typ))
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	good, _ := Marshal(sampleResult())

	if _, err := Unmarshal(good[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF // corrupt CRC
	if _, err := Unmarshal(bad); !errors.Is(err, ErrCRC) {
		t.Errorf("bad CRC: %v", err)
	}
	// An unknown type with a valid CRC reaches the type check.
	bad, _ = Marshal(rawMessage{200, good[HeaderSize : len(good)-TrailerSize]})
	if _, err := Unmarshal(bad); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: %v", err)
	}
	// Truncated payload with consistent header length field.
	bad = append([]byte(nil), good...)
	bad = bad[:len(bad)-8]
	if _, err := Unmarshal(bad); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}
}

// TestUnmarshalRejectsRetiredTypes pins that wire types 1–4, whose
// messages no longer exist, are unknown to the decoder even when framed
// with a valid CRC and a body their old decoders accepted.
func TestUnmarshalRejectsRetiredTypes(t *testing.T) {
	for _, m := range retiredMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Unmarshal(buf); !errors.Is(err, ErrUnknownType) {
			t.Errorf("wire type %d: Unmarshal = %T, %v; want ErrUnknownType", uint8(m.Type()), got, err)
		}
	}
}

// TestCorruptionDetectedProperty flips one bit anywhere in a framed
// message: the CRC covers everything after the magic and a flip in the
// magic fails the magic check, so every flip must be rejected.
func TestCorruptionDetectedProperty(t *testing.T) {
	good, _ := Marshal(sampleResult())
	f := func(pos uint16, bit uint8) bool {
		buf := append([]byte(nil), good...)
		buf[int(pos)%len(buf)] ^= 1 << (bit % 8)
		_, err := Unmarshal(buf)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalOversized(t *testing.T) {
	r := &RoundResult{Outcome: Outcome{DownlinkPayload: make([]byte, MaxPayload+1)}}
	if _, err := Marshal(r); !errors.Is(err, ErrOversized) {
		t.Fatalf("expected ErrOversized, got %v", err)
	}
}

func TestMsgTypeAndStatusStrings(t *testing.T) {
	if TypeHello.String() != "hello" || MsgType(99).String() != "MsgType(99)" {
		t.Fatal("MsgType strings")
	}
	for _, m := range retiredMessages() {
		if got, want := m.Type().String(), fmt.Sprintf("MsgType(%d)", uint8(m.Type())); got != want {
			t.Fatalf("retired type prints %q, want %q", got, want)
		}
	}
	if RoundSkipped.String() != "skipped" || RoundStatus(9).String() != "RoundStatus(9)" {
		t.Fatal("RoundStatus strings")
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := sampleResult()
	if err := a.Send(b.Addr(), want); err != nil {
		t.Fatal(err)
	}
	got, from, err := b.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if from.Port != a.Addr().Port {
		t.Fatalf("sender port %d, want %d", from.Port, a.Addr().Port)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	_, _, err = a.Recv(50 * time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestUDPMalformedDatagramSurfacesError(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	raw, err := Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	raw[0] = 'Z'
	// Push the unvalidated bytes through the node's transport.
	if _, err := a.tr.WriteTo(raw, b.Addr()); err != nil {
		t.Fatal(err)
	}
	_, _, err = b.Recv(2 * time.Second)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}
}

func TestPayloadBytesAreCopied(t *testing.T) {
	buf, _ := Marshal(sampleResult())
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xEE // mutate the wire buffer
	}
	if !reflect.DeepEqual(m, sampleResult()) {
		t.Fatal("decoded message must not alias the wire buffer")
	}
}
