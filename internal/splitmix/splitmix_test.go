package splitmix

import "testing"

// TestMixReferenceSequence pins Mix against the published splitmix64
// output sequence for state 0: the k-th output is Mix((k-1)·Gamma).
func TestMixReferenceSequence(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for k, w := range want {
		if got := Mix(uint64(k) * Gamma); got != w {
			t.Errorf("Mix(%d·Gamma) = %#016x, want %#016x", k, got, w)
		}
	}
}

func TestUniformRangeAndIsolation(t *testing.T) {
	for idx := uint64(0); idx < 1000; idx++ {
		u := Uniform(42, 1, idx)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform(42, 1, %d) = %v outside [0, 1)", idx, u)
		}
		if u == Uniform(43, 1, idx) || u == Uniform(42, 2, idx) {
			t.Fatalf("seed or stream change did not move the draw at idx %d", idx)
		}
	}
}
