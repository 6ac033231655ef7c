package core

import "errors"

// Sentinel errors of the network facade. Failures that used to surface as
// ad-hoc fmt.Errorf strings now wrap one of these, so callers can branch
// with errors.Is instead of string matching.
var (
	// ErrNoNodes means the configuration places no backscatter nodes; a
	// network needs at least one.
	ErrNoNodes = errors.New("core: at least one node is required")

	// ErrToneBandExceeded means a node's uplink modulation tones fall at or
	// above the slow-time Nyquist band (half the chirp rate), so the radar
	// could not separate them. Use fewer nodes, a larger ChirpsPerBit,
	// explicit ModulationF0/F1 assignments, or a mac.FrameSchedule
	// (WithSchedule) that time-division-multiplexes tags across frames.
	ErrToneBandExceeded = errors.New("core: uplink tones exceed the slow-time band")

	// ErrNodeInactive is carried in a NodeResult for nodes scheduled out of
	// the current exchange round (WithActiveNodes, or a frame-schedule group
	// the node is not part of): the node's switch held a static state, so
	// there is nothing to decode, detect or demodulate.
	ErrNodeInactive = errors.New("core: node inactive this round")

	// ErrFleetClosed is returned by Fleet methods after Close: the calls
	// admitted before it have returned, and no further work is accepted.
	ErrFleetClosed = errors.New("core: fleet is closed")
)
