package core

// Mix64 is the splitmix64 finalizer: a cheap, bijective bit mixer with
// full avalanche. Every seeded hash decision in the repo (fault draws,
// corpus axes, chaos schedules, load-generator choices, release jitter)
// finishes its own pre-mixed coordinates through it, so one seed means
// the same stream everywhere.
//
//rtmdm:hotpath
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
