// Package netio is the session plane that lets BiScatter tags run as
// separate processes from the radar: a Gateway supervises tag Client
// sessions (handshake, heartbeats, round submissions and results, eviction)
// over length-delimited binary messages with a magic/version header and a
// CRC-32 trailer, carried by a UDP datagram or length-prefixed TCP stream
// transport. The radar owns the whole exchange pipeline; a tag process
// submits its uplink bits per round and receives its outcome.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Protocol constants.
const (
	// Magic starts every message.
	Magic = "BSC1"
	// HeaderSize is magic + type + flags + length.
	HeaderSize = 4 + 1 + 1 + 2
	// TrailerSize is the CRC-32.
	TrailerSize = 4
	// MaxPayload bounds the message payload so a single message fits
	// comfortably in a UDP datagram.
	MaxPayload = 60000
)

// MsgType identifies a message.
type MsgType uint8

// Message types. Wire types 1–4 are retired: the decoder rejects them as
// unknown, and they are not to be reused, so a frame from an older peer can
// never parse as a session message.
const (
	// TypeHello opens (or resumes) a session (tag → gateway).
	TypeHello MsgType = 5
	// TypeHelloAck answers a Hello: accept with session parameters, or
	// reject with a reason (gateway → tag).
	TypeHelloAck MsgType = 6
	// TypeHeartbeat is the liveness ping; the gateway sends nothing back
	// (tag → gateway).
	TypeHeartbeat MsgType = 7
	// TypeSubmitRound carries a tag's uplink bits for one exchange round
	// (tag → gateway).
	TypeSubmitRound MsgType = 8
	// TypeRoundResult carries one round's exchange outcome digest for one
	// tag (gateway → tag).
	TypeRoundResult MsgType = 9
	// TypeGoodbye closes a session gracefully (tag → gateway).
	TypeGoodbye MsgType = 10
	// TypeEvict tells a client its session is gone; the client should
	// re-handshake (gateway → tag).
	TypeEvict MsgType = 11
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeSubmitRound:
		return "submit-round"
	case TypeRoundResult:
		return "round-result"
	case TypeGoodbye:
		return "goodbye"
	case TypeEvict:
		return "evict"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Errors returned by the codec.
var (
	// ErrTruncated means the buffer is shorter than the framing requires.
	ErrTruncated = errors.New("netio: truncated message")
	// ErrBadMagic means the buffer does not start with the protocol magic.
	ErrBadMagic = errors.New("netio: bad magic")
	// ErrCRC means the checksum failed.
	ErrCRC = errors.New("netio: CRC mismatch")
	// ErrUnknownType means the message type is not recognized.
	ErrUnknownType = errors.New("netio: unknown message type")
	// ErrOversized means the payload exceeds MaxPayload.
	ErrOversized = errors.New("netio: oversized payload")
)

// Message is anything that can ride the wire.
type Message interface {
	// Type returns the message's wire type.
	Type() MsgType
	// appendPayload serializes the body onto dst.
	appendPayload(dst []byte) []byte
	// decodePayload parses the body.
	decodePayload(src []byte) error
}

// Marshal frames a message: header, payload, CRC-32 (IEEE) over type, flags,
// length and payload.
func Marshal(m Message) ([]byte, error) {
	payload := m.appendPayload(nil)
	if len(payload) > MaxPayload {
		return nil, ErrOversized
	}
	buf := make([]byte, 0, HeaderSize+len(payload)+TrailerSize)
	buf = append(buf, Magic...)
	buf = append(buf, byte(m.Type()), 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[4:])
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return buf, nil
}

// Unmarshal parses one framed message from buf.
func Unmarshal(buf []byte) (Message, error) {
	if len(buf) < HeaderSize+TrailerSize {
		return nil, ErrTruncated
	}
	if string(buf[:4]) != Magic {
		return nil, ErrBadMagic
	}
	typ := MsgType(buf[4])
	n := int(binary.BigEndian.Uint16(buf[6:8]))
	if len(buf) < HeaderSize+n+TrailerSize {
		return nil, ErrTruncated
	}
	body := buf[HeaderSize : HeaderSize+n]
	wantCRC := binary.BigEndian.Uint32(buf[HeaderSize+n : HeaderSize+n+TrailerSize])
	if crc32.ChecksumIEEE(buf[4:HeaderSize+n]) != wantCRC {
		return nil, ErrCRC
	}
	var m Message
	switch typ {
	case TypeHello:
		m = &Hello{}
	case TypeHelloAck:
		m = &HelloAck{}
	case TypeHeartbeat:
		m = &Heartbeat{}
	case TypeSubmitRound:
		m = &SubmitRound{}
	case TypeRoundResult:
		m = &RoundResult{}
	case TypeGoodbye:
		m = &Goodbye{}
	case TypeEvict:
		m = &Evict{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, typ)
	}
	if err := m.decodePayload(body); err != nil {
		return nil, err
	}
	return m, nil
}
