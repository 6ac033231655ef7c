package mac

import "fmt"

// FrameSchedule is a deterministic multi-tag frame schedule: a round-robin
// time-division of nTags tags into frame groups of at most capacity tags
// each. It is the "real" scheduler grown out of the analytic TDMA model —
// where NetworkThroughput only predicts the per-node/aggregate rate
// trade-off, a FrameSchedule says exactly which tags modulate in which
// frame and which slow-time tone slot each occupies, so the exchange engine
// can serve a deployment larger than the tone grid by cycling groups across
// frames (the B-ISAC massive-tag picture).
//
// Tags are assigned in index order to contiguous groups: group g holds tags
// [g·capacity, min((g+1)·capacity, nTags)). Within its group a tag occupies
// tone slot tag−g·capacity, so tags in different groups reuse the same tone
// pair — legal because they never modulate in the same frame. The schedule
// is pure data (no RNG, no clock) and safe for concurrent readers.
type FrameSchedule struct {
	nTags    int
	capacity int
	frames   int
}

// NewFrameSchedule builds a schedule for nTags tags under a per-frame
// concurrency capacity (typically MaxConcurrentTags for the deployment's
// period and chirps-per-bit).
func NewFrameSchedule(nTags, capacity int) (*FrameSchedule, error) {
	if nTags < 1 {
		return nil, fmt.Errorf("mac: schedule needs at least one tag, got %d", nTags)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("mac: schedule needs positive capacity, got %d", capacity)
	}
	return &FrameSchedule{
		nTags:    nTags,
		capacity: capacity,
		frames:   (nTags + capacity - 1) / capacity,
	}, nil
}

// ScheduleFor builds the schedule for a deployment directly from its
// slow-time parameters: capacity comes from MaxConcurrentTags(period,
// chirpsPerBit).
func ScheduleFor(nTags int, period float64, chirpsPerBit int) (*FrameSchedule, error) {
	cap := MaxConcurrentTags(period, chirpsPerBit)
	if cap == 0 {
		return nil, fmt.Errorf("mac: no tone capacity at period %v, chirpsPerBit %d", period, chirpsPerBit)
	}
	return NewFrameSchedule(nTags, cap)
}

// NTags returns the number of scheduled tags.
func (s *FrameSchedule) NTags() int { return s.nTags }

// Capacity returns the per-frame tag capacity.
func (s *FrameSchedule) Capacity() int { return s.capacity }

// Frames returns the cycle length: how many frames serve every tag once.
func (s *FrameSchedule) Frames() int { return s.frames }

// GroupOf returns the frame group (0-based, within the cycle) in which tag
// modulates. Out-of-range tags return -1.
func (s *FrameSchedule) GroupOf(tag int) int {
	if tag < 0 || tag >= s.nTags {
		return -1
	}
	return tag / s.capacity
}

// SlotOf returns tag's tone slot within its group — the index the exchange
// engine uses to auto-assign the tag's FSK pair. Tags in different groups
// share slots (and therefore tones); tags in the same group never do.
// Out-of-range tags return -1.
func (s *FrameSchedule) SlotOf(tag int) int {
	if tag < 0 || tag >= s.nTags {
		return -1
	}
	return tag % s.capacity
}

// Assignment returns tag's (frame group, tone slot) pair in one call — what
// a schedule-aware gateway stores per session at admission time.
// Out-of-range tags return (-1, -1).
func (s *FrameSchedule) Assignment(tag int) (group, slot int) {
	if tag < 0 || tag >= s.nTags {
		return -1, -1
	}
	return tag / s.capacity, tag % s.capacity
}

// AppendGroup appends the tag indices active in frame group g (g taken
// modulo the cycle length) to dst and returns the extended slice, so a
// steady-state caller reuses one backing buffer across frames.
func (s *FrameSchedule) AppendGroup(dst []int, g int) []int {
	g = ((g % s.frames) + s.frames) % s.frames
	lo := g * s.capacity
	hi := lo + s.capacity
	if hi > s.nTags {
		hi = s.nTags
	}
	for t := lo; t < hi; t++ {
		dst = append(dst, t)
	}
	return dst
}

// Throughput evaluates the schedule against the deployment's slow-time
// parameters: every tag gets exactly one frame per cycle, so the per-node
// rate is the raw bit rate divided by the cycle length, and the aggregate
// is bounded by the mean group size. It is the frame-quantized counterpart
// of the fluid NetworkThroughput model — the two agree when nTags divides
// evenly into groups, and the schedule is slightly conservative otherwise
// (a short last group still costs a whole frame).
func (s *FrameSchedule) Throughput(chirpsPerBit int, period float64) Throughput {
	raw := 1 / (float64(chirpsPerBit) * period)
	return Throughput{
		Concurrent:       s.capacity,
		PerNodeBitRate:   raw / float64(s.frames),
		AggregateBitRate: raw * float64(s.nTags) / float64(s.frames),
	}
}
