package mac

import "testing"

func TestNewFrameScheduleValidation(t *testing.T) {
	if _, err := NewFrameSchedule(0, 4); err == nil {
		t.Fatal("expected error for zero tags")
	}
	if _, err := NewFrameSchedule(4, 0); err == nil {
		t.Fatal("expected error for zero capacity")
	}
}

func TestFrameSchedulePartition(t *testing.T) {
	// Every tag must appear exactly once per cycle, in exactly one group,
	// and no group may exceed the capacity.
	for _, tc := range []struct{ nTags, cap, frames int }{
		{1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}, {24, 7, 4},
	} {
		s, err := NewFrameSchedule(tc.nTags, tc.cap)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Frames(); got != tc.frames {
			t.Errorf("nTags=%d cap=%d: frames %d, want %d", tc.nTags, tc.cap, got, tc.frames)
		}
		seen := make([]int, tc.nTags)
		for g := 0; g < s.Frames(); g++ {
			grp := s.AppendGroup(nil, g)
			if len(grp) > tc.cap {
				t.Errorf("group %d size %d exceeds capacity %d", g, len(grp), tc.cap)
			}
			for slot, tag := range grp {
				seen[tag]++
				if s.GroupOf(tag) != g {
					t.Errorf("tag %d: GroupOf %d, want %d", tag, s.GroupOf(tag), g)
				}
				if s.SlotOf(tag) != slot {
					t.Errorf("tag %d: SlotOf %d, want %d", tag, s.SlotOf(tag), slot)
				}
			}
		}
		for tag, c := range seen {
			if c != 1 {
				t.Errorf("tag %d scheduled %d times per cycle", tag, c)
			}
		}
	}
}

func TestFrameScheduleSlotReuseAcrossGroups(t *testing.T) {
	s, err := NewFrameSchedule(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Slots repeat across groups but never within one.
	for g := 0; g < s.Frames(); g++ {
		slots := map[int]bool{}
		for _, tag := range s.AppendGroup(nil, g) {
			sl := s.SlotOf(tag)
			if sl < 0 || sl >= s.Capacity() {
				t.Fatalf("tag %d slot %d out of [0,%d)", tag, sl, s.Capacity())
			}
			if slots[sl] {
				t.Fatalf("group %d reuses slot %d", g, sl)
			}
			slots[sl] = true
		}
	}
	if s.SlotOf(0) != s.SlotOf(4) || s.SlotOf(4) != s.SlotOf(8) {
		t.Fatal("tags 0,4,8 should share slot 0 across groups")
	}
}

func TestFrameScheduleGroupWraps(t *testing.T) {
	s, err := NewFrameSchedule(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	g0, g2 := s.AppendGroup(nil, 0), s.AppendGroup(nil, 2)
	if len(g0) != len(g2) {
		t.Fatalf("group 2 should wrap to group 0: %v vs %v", g2, g0)
	}
	for i := range g0 {
		if g0[i] != g2[i] {
			t.Fatalf("group 2 should wrap to group 0: %v vs %v", g2, g0)
		}
	}
}

func TestFrameScheduleOutOfRange(t *testing.T) {
	s, err := NewFrameSchedule(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupOf(-1) != -1 || s.GroupOf(3) != -1 {
		t.Fatal("out-of-range GroupOf should return -1")
	}
	if s.SlotOf(-1) != -1 || s.SlotOf(3) != -1 {
		t.Fatal("out-of-range SlotOf should return -1")
	}
}

func TestScheduleForMatchesCapacity(t *testing.T) {
	period, cpb := 100e-6, 32
	cap := MaxConcurrentTags(period, cpb)
	if cap < 1 {
		t.Fatalf("expected positive capacity, got %d", cap)
	}
	s, err := ScheduleFor(3*cap+1, period, cpb)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != cap {
		t.Fatalf("capacity %d, want %d", s.Capacity(), cap)
	}
	if s.Frames() != 4 {
		t.Fatalf("frames %d, want 4", s.Frames())
	}
	if _, err := ScheduleFor(4, -1, 32); err == nil {
		t.Fatal("expected error for invalid period")
	}
}

func TestScheduleThroughputMatchesAnalyticModel(t *testing.T) {
	// When nTags divides evenly into groups the frame-quantized schedule
	// must agree with the fluid NetworkThroughput model.
	period, cpb := 100e-6, 32
	cap := MaxConcurrentTags(period, cpb)
	nTags := 2 * cap
	s, err := NewFrameSchedule(nTags, cap)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Throughput(cpb, period)
	want, err := NetworkThroughput(nTags, cpb, period)
	if err != nil {
		t.Fatal(err)
	}
	if got.Concurrent != want.Concurrent {
		t.Errorf("concurrent %d, want %d", got.Concurrent, want.Concurrent)
	}
	if diff := got.PerNodeBitRate - want.PerNodeBitRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-node rate %v, want %v", got.PerNodeBitRate, want.PerNodeBitRate)
	}
	if diff := got.AggregateBitRate - want.AggregateBitRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("aggregate rate %v, want %v", got.AggregateBitRate, want.AggregateBitRate)
	}
}
