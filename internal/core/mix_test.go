package core

import "testing"

// TestMix64KnownOutputs pins Mix64 to the reference splitmix64
// generator: output k of a generator seeded with s is Mix64 of
// s + k·0x9e3779b97f4a7c15 (mod 2^64).
func TestMix64KnownOutputs(t *testing.T) {
	cases := []struct {
		in, want uint64
	}{
		{0, 0},
		// Seed 0, outputs 1..4.
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
		{0x3c6ef372fe94f82a, 0x6e789e6aa1b965f4},
		{0xdaa66d2c7ddf743f, 0x06c45d188009454f},
		{0x78dde6e5fd29f054, 0xf88bb8a8724c81ec},
		// Seed 1234567, output 1 (6457827717110365317).
		{0x9e3779b97f5d529c, 0x599ed017fb08fc85},
	}
	for _, c := range cases {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
