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

// magic and version prefix every trace file.
const (
	magic   = "BSCTRACE"
	version = 1
)

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
