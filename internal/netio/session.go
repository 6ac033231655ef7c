package netio

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ProtocolVersion is the session-protocol revision spoken by Gateway and
// Client. A Hello carrying a different version is rejected during the
// handshake — wire-format drift fails loudly at connect time, not as a
// mid-session decode error.
const ProtocolVersion uint16 = 2

// wireReader is a sequential decoder over one payload. The first short read
// latches ErrTruncated; callers check err once at the end, which keeps the
// per-message decodePayload bodies linear and offset-free.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes16 reads a uint16-length-prefixed byte string (copied out of the
// wire buffer).
func (r *wireReader) bytes16() []byte {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *wireReader) str() string { return string(r.bytes16()) }

// done reports the final decode status: latched error, or ErrTruncated when
// trailing bytes remain (a message must consume its payload exactly).
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrTruncated
	}
	return nil
}

func appendBytes16(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	return appendBytes16(dst, []byte(s))
}

// packBits packs bits MSB-first; unpackBits is its inverse.
func packBits(bits []bool) (count uint16, packed []byte) {
	packed = make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			packed[i/8] |= 1 << uint(7-i%8)
		}
	}
	return uint16(len(bits)), packed
}

func unpackBits(count uint16, packed []byte) []bool {
	out := make([]bool, count)
	for i := range out {
		if i/8 < len(packed) {
			out[i] = packed[i/8]&(1<<uint(7-i%8)) != 0
		}
	}
	return out
}

// checkBitCount validates a packed bit field.
func checkBitCount(count uint16, packed []byte) error {
	if int(count) > 8*len(packed) {
		return fmt.Errorf("netio: bit count %d exceeds %d packed bytes", count, len(packed))
	}
	return nil
}

// Hello opens a session with the gateway (or resumes one after a
// disconnect: a nonzero SessionID asks the gateway to adopt the existing
// session if it still exists).
type Hello struct {
	// Version is the sender's ProtocolVersion; the gateway rejects a
	// mismatch.
	Version uint16
	// TagID identifies the tag; the gateway keys sessions by it.
	TagID uint8
	// SessionID resumes an existing session when nonzero.
	SessionID uint64
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (h *Hello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, h.Version)
	dst = append(dst, h.TagID)
	dst = binary.BigEndian.AppendUint64(dst, h.SessionID)
	return dst
}

// decodePayload reads Version first and stops there on a mismatch, so a
// Hello of any other protocol's layout still reaches the gateway's version
// check and is answered HelloRejectVersion.
func (h *Hello) decodePayload(src []byte) error {
	r := wireReader{b: src}
	h.Version = r.u16()
	if r.err == nil && h.Version != ProtocolVersion {
		return nil
	}
	h.TagID = r.u8()
	h.SessionID = r.u64()
	return r.done()
}

// HelloCode is the gateway's handshake verdict.
type HelloCode uint8

// Handshake verdicts.
const (
	// HelloAccept: a new session was created.
	HelloAccept HelloCode = 0
	// HelloResume: an existing session was adopted (same tag reconnecting).
	HelloResume HelloCode = 1
	// HelloRejectVersion: protocol-version mismatch; Reason names the
	// gateway's version.
	HelloRejectVersion HelloCode = 2
	// HelloRejectUnknown: the tag is not deployed on this gateway (its
	// frame plan places it in no group); Reason names the tag. Value 4 is
	// retired and never reused.
	HelloRejectUnknown HelloCode = 3
)

// String implements fmt.Stringer.
func (c HelloCode) String() string {
	switch c {
	case HelloAccept:
		return "accept"
	case HelloResume:
		return "resume"
	case HelloRejectVersion:
		return "reject-version"
	case HelloRejectUnknown:
		return "reject-unknown"
	default:
		return fmt.Sprintf("HelloCode(%d)", uint8(c))
	}
}

// Accepted reports whether the handshake succeeded.
func (c HelloCode) Accepted() bool { return c == HelloAccept || c == HelloResume }

// HelloAck answers a Hello.
type HelloAck struct {
	// Code is the verdict.
	Code HelloCode
	// SessionID is the session identity (zero on reject).
	SessionID uint64
	// NextRound is the next exchange round the gateway will run; a
	// (re)joining client starts submitting at this round, which is what
	// makes a killed-and-restarted tag resume mid-stream.
	NextRound uint64
	// HeartbeatMillis is the heartbeat interval the gateway expects.
	HeartbeatMillis uint32
	// Reason explains a rejection.
	Reason string
}

// Type implements Message.
func (*HelloAck) Type() MsgType { return TypeHelloAck }

func (h *HelloAck) appendPayload(dst []byte) []byte {
	dst = append(dst, byte(h.Code))
	dst = binary.BigEndian.AppendUint64(dst, h.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, h.NextRound)
	dst = binary.BigEndian.AppendUint32(dst, h.HeartbeatMillis)
	dst = appendString(dst, h.Reason)
	return dst
}

func (h *HelloAck) decodePayload(src []byte) error {
	r := wireReader{b: src}
	h.Code = HelloCode(r.u8())
	h.SessionID = r.u64()
	h.NextRound = r.u64()
	h.HeartbeatMillis = r.u32()
	h.Reason = r.str()
	return r.done()
}

// Heartbeat is the client's liveness ping: it refreshes the session's
// liveness deadline at the gateway, which sends nothing back.
type Heartbeat struct {
	SessionID uint64
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbeat }

func (h *Heartbeat) appendPayload(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, h.SessionID)
}

func (h *Heartbeat) decodePayload(src []byte) error {
	r := wireReader{b: src}
	h.SessionID = r.u64()
	return r.done()
}

// SubmitRound carries a tag's uplink bits for one exchange round. The
// gateway runs the round once every live session has submitted it (or the
// round deadline passes) and answers with a RoundResult. Retransmissions
// are idempotent: a duplicate submit for a completed round is answered from
// the gateway's per-session result cache.
type SubmitRound struct {
	SessionID uint64
	// Round is the exchange round these bits are for.
	Round uint64
	// BitCount is the number of valid bits in Bits.
	BitCount uint16
	// Bits is the uplink message, packed MSB-first.
	Bits []byte
}

// Type implements Message.
func (*SubmitRound) Type() MsgType { return TypeSubmitRound }

func (s *SubmitRound) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, s.Round)
	dst = binary.BigEndian.AppendUint16(dst, s.BitCount)
	dst = appendBytes16(dst, s.Bits)
	return dst
}

func (s *SubmitRound) decodePayload(src []byte) error {
	r := wireReader{b: src}
	s.SessionID = r.u64()
	s.Round = r.u64()
	s.BitCount = r.u16()
	s.Bits = r.bytes16()
	if err := r.done(); err != nil {
		return err
	}
	return checkBitCount(s.BitCount, s.Bits)
}

// SetBits packs a bool slice into the submission.
func (s *SubmitRound) SetBits(bits []bool) {
	s.BitCount, s.Bits = packBits(bits)
}

// GetBits unpacks the submission's bits.
func (s *SubmitRound) GetBits() []bool { return unpackBits(s.BitCount, s.Bits) }

// RoundStatus summarizes one tag's round outcome.
type RoundStatus uint8

// Round statuses.
const (
	// RoundOK: the exchange ran; Outcome holds this tag's digest.
	RoundOK RoundStatus = 0
	// RoundError: the exchange failed at round level; Outcome.Err explains.
	RoundError RoundStatus = 1
	// RoundSkipped: the round ran without this tag (it submitted too late,
	// or was quarantined); there is no outcome for it.
	RoundSkipped RoundStatus = 2
)

// String implements fmt.Stringer.
func (s RoundStatus) String() string {
	switch s {
	case RoundOK:
		return "ok"
	case RoundError:
		return "error"
	case RoundSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("RoundStatus(%d)", uint8(s))
	}
}

// Outcome is one node's exchange digest, and the only one: the gateway
// sends it, a trace.RoundRecord stores one per node, and replay compares
// the recorded and replayed digests with Diff. Decoded bytes and bits are
// verbatim, detection coordinates bit-exact, and errors travel as strings
// (they cross a process boundary; identity is textual). Diagnostics are
// left out: they describe a round, they are not part of its determinism
// contract.
type Outcome struct {
	// Err is a per-tag round-level error ("" = none). It is always empty
	// in a record, which keeps a failed round's error in RoundRecord.Err.
	Err string
	// DownlinkPayload is what the tag's decoder produced.
	DownlinkPayload []byte
	// DownlinkErr is the downlink decode failure, if any.
	DownlinkErr string
	// DetectionRange/Bin/SNRdB are the radar's localization of this tag.
	// The wire carries the bin as 32 bits.
	DetectionRange float64
	DetectionBin   int
	DetectionSNRdB float64
	// DetectionErr is the localization failure, if any.
	DetectionErr string
	// UplinkBits is what the radar demodulated from this tag's backscatter.
	UplinkBits []bool
	// UplinkErr is the uplink demodulation failure, if any.
	UplinkErr string
}

// FieldDiff is one field on which two outcomes differ.
type FieldDiff struct {
	// Field names it ("downlink_payload", "detection", "uplink_err").
	Field string
	// Want and Got render the two values.
	Want, Got string
}

// Diff compares o (the recorded digest) with got field by field and lists
// every field that differs; nil means the two are equal. Floats compare
// exactly: the pipeline is deterministic, so any drift is a divergence.
func (o Outcome) Diff(got Outcome) []FieldDiff {
	var d []FieldDiff
	str := func(field, want, got string) {
		if want != got {
			d = append(d, FieldDiff{field, quoteOr(want), quoteOr(got)})
		}
	}
	str("err", o.Err, got.Err)
	if string(o.DownlinkPayload) != string(got.DownlinkPayload) {
		d = append(d, FieldDiff{"downlink_payload", fmt.Sprintf("%x", o.DownlinkPayload), fmt.Sprintf("%x", got.DownlinkPayload)})
	}
	str("downlink_err", o.DownlinkErr, got.DownlinkErr)
	if o.DetectionRange != got.DetectionRange || o.DetectionBin != got.DetectionBin || o.DetectionSNRdB != got.DetectionSNRdB {
		d = append(d, FieldDiff{"detection", o.detection(), got.detection()})
	}
	str("detection_err", o.DetectionErr, got.DetectionErr)
	if !slices.Equal(o.UplinkBits, got.UplinkBits) {
		d = append(d, FieldDiff{"uplink_bits", fmt.Sprint(o.UplinkBits), fmt.Sprint(got.UplinkBits)})
	}
	str("uplink_err", o.UplinkErr, got.UplinkErr)
	return d
}

func (o Outcome) detection() string {
	return fmt.Sprintf("(%v m, bin %d, %v dB)", o.DetectionRange, o.DetectionBin, o.DetectionSNRdB)
}

func quoteOr(s string) string {
	if s == "" {
		return "<nil>"
	}
	return fmt.Sprintf("%q", s)
}

func (o Outcome) appendPayload(dst []byte) []byte {
	dst = appendString(dst, o.Err)
	dst = appendBytes16(dst, o.DownlinkPayload)
	dst = appendString(dst, o.DownlinkErr)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.DetectionRange))
	dst = binary.BigEndian.AppendUint32(dst, uint32(o.DetectionBin))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.DetectionSNRdB))
	dst = appendString(dst, o.DetectionErr)
	count, packed := packBits(o.UplinkBits)
	dst = binary.BigEndian.AppendUint16(dst, count)
	dst = appendBytes16(dst, packed)
	dst = appendString(dst, o.UplinkErr)
	return dst
}

func (o *Outcome) decode(r *wireReader) error {
	o.Err = r.str()
	o.DownlinkPayload = r.bytes16()
	o.DownlinkErr = r.str()
	o.DetectionRange = r.f64()
	o.DetectionBin = int(int32(r.u32()))
	o.DetectionSNRdB = r.f64()
	o.DetectionErr = r.str()
	count := r.u16()
	packed := r.bytes16()
	o.UplinkErr = r.str()
	if r.err != nil {
		return r.err
	}
	if err := checkBitCount(count, packed); err != nil {
		return err
	}
	o.UplinkBits = unpackBits(count, packed)
	if len(o.DownlinkPayload) == 0 {
		o.DownlinkPayload = nil
	}
	if count == 0 {
		o.UplinkBits = nil
	}
	return nil
}

// RoundResult is the gateway's answer to one SubmitRound.
type RoundResult struct {
	SessionID uint64
	// Round echoes the submission's round.
	Round uint64
	// Status says whether Outcome is meaningful.
	Status RoundStatus
	// Outcome is this tag's digest (zero value unless Status == RoundOK,
	// except Outcome.Err which RoundError sets).
	Outcome Outcome
}

// Type implements Message.
func (*RoundResult) Type() MsgType { return TypeRoundResult }

func (rr *RoundResult) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, rr.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, rr.Round)
	dst = append(dst, byte(rr.Status))
	return rr.Outcome.appendPayload(dst)
}

func (rr *RoundResult) decodePayload(src []byte) error {
	r := wireReader{b: src}
	rr.SessionID = r.u64()
	rr.Round = r.u64()
	rr.Status = RoundStatus(r.u8())
	if err := rr.Outcome.decode(&r); err != nil {
		return err
	}
	return r.done()
}

// Goodbye closes a session gracefully.
type Goodbye struct {
	SessionID uint64
}

// Type implements Message.
func (*Goodbye) Type() MsgType { return TypeGoodbye }

func (g *Goodbye) appendPayload(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, g.SessionID)
}

func (g *Goodbye) decodePayload(src []byte) error {
	r := wireReader{b: src}
	g.SessionID = r.u64()
	return r.done()
}

// Evict tells a client its session no longer exists (heartbeat deadline
// passed, the gateway restarted, or it was replaced). The client reacts by
// re-handshaking.
type Evict struct {
	SessionID uint64
	// Reason is human-readable.
	Reason string
}

// Type implements Message.
func (*Evict) Type() MsgType { return TypeEvict }

func (e *Evict) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, e.SessionID)
	dst = appendString(dst, e.Reason)
	return dst
}

func (e *Evict) decodePayload(src []byte) error {
	r := wireReader{b: src}
	e.SessionID = r.u64()
	e.Reason = r.str()
	return r.done()
}
