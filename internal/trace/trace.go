// Package trace records exchange conversations (ExchangeRecord) so a run
// can be replayed byte-identically offline, regression-tested and attached
// to bug reports. Files are gob-encoded behind a magic/version/kind header
// so format drift fails loudly instead of decoding garbage.
package trace

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// magic and version prefix every trace file. A version-2 record holds no
// maps, so its bytes are reproducible; a file of any other version is
// refused with ErrBadHeader.
const (
	magic   = "BSCTRACE"
	version = 2
)

// Gob numbers each type the first time any encoder in the process sends
// it, and writes those numbers into the stream, so a record's bytes would
// depend on what else the process had gob-encoded before. Sending the
// record's types once at start-up fixes their numbers.
func init() {
	enc := gob.NewEncoder(io.Discard)
	if err := enc.Encode(header{}); err != nil {
		panic(err)
	}
	if err := enc.Encode(&ExchangeRecord{}); err != nil {
		panic(err)
	}
}

// ErrBadHeader means the file is not a trace file or has an incompatible
// version.
var ErrBadHeader = errors.New("trace: bad header")

type header struct {
	Magic   string
	Version int
	Kind    string
}

// write serializes any payload with the header.
func write(w io.Writer, kind string, payload any) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: kind}); err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	if err := enc.Encode(payload); err != nil {
		return fmt.Errorf("trace: encode payload: %w", err)
	}
	return bw.Flush()
}

// read checks the header and decodes the payload.
func read(r io.Reader, kind string, payload any) error {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if h.Magic != magic || h.Version != version || h.Kind != kind {
		return fmt.Errorf("%w: magic=%q version=%d kind=%q (want %q/%d/%q)",
			ErrBadHeader, h.Magic, h.Version, h.Kind, magic, version, kind)
	}
	if err := dec.Decode(payload); err != nil {
		return fmt.Errorf("trace: decode payload: %w", err)
	}
	return nil
}
