package trace

import (
	"io"
	"os"

	"biscatter/internal/channel"
	"biscatter/internal/fault"
	"biscatter/internal/fec"
	"biscatter/internal/fmcw"
	"biscatter/internal/netio"
)

// ExchangeRecord captures everything needed to re-run a sequence of
// exchanges byte-identically offline: the full network specification
// (including seeds and the fault profile — the pipeline is deterministic
// given these), every round's inputs, and the outcomes the live run
// produced so replay can verify itself against the original.
//
// The file uses the BSCTRACE magic/version framing with kind "exchange",
// so format drift fails loudly. Bumping the trace version invalidates old
// records by design — a record that decodes must replay. The record holds
// no maps, so the same record always encodes to the same bytes.
type ExchangeRecord struct {
	// Spec reconstructs the network.
	Spec ExchangeSpec
	// Rounds holds the recorded exchanges in execution order.
	Rounds []RoundRecord
}

// ExchangeSpec is the flattened core.Config — every field that influences
// exchange results, and nothing that doesn't (no telemetry sinks, no worker
// count: results are byte-identical at any worker count, so replay may pick
// its own). The radar preset is embedded in full rather than referenced by
// name, so a record survives preset drift in the codebase.
//
// The tag hardware is not in the spec: its delay-line pair, ADC rate, Δf_int
// and chirp floor are package constants, not settings. Records that still
// carry the retired MinChirpDuration, DeltaL, MinBeatSpacing, TagSampleRate
// and DecoderMethod fields decode unchanged, because gob skips stream
// fields the struct lacks; they held those constants' values.
type ExchangeSpec struct {
	Preset       fmcw.Preset
	Period       float64
	SymbolBits   int
	HeaderChirps int
	SyncChirps   int
	FEC          fec.Config
	ChirpsPerBit int
	Nodes        []NodeSpec
	// ScheduleCapacity reconstructs the TDMA frame schedule
	// (mac.NewFrameSchedule(len(Nodes), ScheduleCapacity)); zero means no
	// schedule — every node concurrent in every frame.
	ScheduleCapacity int
	Clutter          []channel.Reflector
	Faults           *fault.Profile
	Seed             int64
	// NetworkID is the recorded network's identity (a fleet-assigned id or
	// 0); exchange IDs derive from it, so replay must reuse it.
	NetworkID int
}

// NodeSpec mirrors core.NodeConfig.
type NodeSpec struct {
	ID           uint8
	Range        float64
	ModulationF0 float64
	ModulationF1 float64
}

// RoundInput is one exchange's inputs.
type RoundInput struct {
	// Payload is the downlink packet payload.
	Payload []byte
	// UplinkBits holds each node's uplink bits, indexed by node; a nil
	// entry means no bits (the node modulates its beacon). Nil when no
	// node had bits. A slice, not a map, so its encoding has one order.
	UplinkBits [][]bool
	// MinChirps is the WithMinChirps floor (zero = none).
	MinChirps int
	// Active lists the WithActiveNodes indices (nil = all nodes).
	Active []int
	// Scheduled marks a round run through ExchangeScheduled — one full
	// TDMA schedule cycle rather than a single frame.
	Scheduled bool
}

// RoundRecord is one recorded exchange: identity, inputs, and what the live
// run observed.
type RoundRecord struct {
	// ExchangeID is the deterministic exchange identity (16 hex digits);
	// replay must reproduce it exactly.
	ExchangeID string
	// Input is what was fed in.
	Input RoundInput
	// Err is the exchange-level error message ("" on success).
	Err string
	// Outcomes holds one digest per network node, in network order, each
	// with an empty Err. Nil when the exchange failed before producing
	// results.
	Outcomes []netio.Outcome
}

// WriteExchange writes an exchange record to w.
func WriteExchange(w io.Writer, r *ExchangeRecord) error {
	return write(w, "exchange", r)
}

// ReadExchange reads an exchange record from r.
func ReadExchange(r io.Reader) (*ExchangeRecord, error) {
	var rec ExchangeRecord
	if err := read(r, "exchange", &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// SaveExchange writes an exchange record to a file.
func SaveExchange(path string, r *ExchangeRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteExchange(f, r); err != nil {
		return err
	}
	return f.Sync()
}

// LoadExchange reads an exchange record from a file.
func LoadExchange(path string) (*ExchangeRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadExchange(f)
}
