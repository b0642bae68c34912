package topo

// Fingerprint digests the schedule's full structural content — dimensions,
// generator kind, every matching, every reconfiguration flag — into a stable
// 64-bit FNV-1a value. The fabric cache (internal/fabriccache) bakes it into
// file headers and cache keys so a persisted compiled fabric can never
// silently serve a schedule other than the one it was built from. The digest
// is a pure function of the built tables, so two schedules with identical
// matchings and reconfiguration timing collide by design (same fabric, same
// file), regardless of which generator produced them.
func (s *Schedule) Fingerprint() uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= prime64
		}
	}
	word(uint64(s.N))
	word(uint64(s.D))
	word(uint64(s.S))
	word(uint64(len(s.Kind)))
	for i := 0; i < len(s.Kind); i++ {
		h ^= uint64(s.Kind[i])
		h *= prime64
	}
	for sl := 0; sl < s.S; sl++ {
		for sw := 0; sw < s.D; sw++ {
			for i := 0; i < s.N; i++ {
				word(uint64(s.PeerOf(sl, i, sw)))
			}
			b := uint64(0)
			if s.reconf[sl][sw] {
				b = 1
			}
			h ^= b
			h *= prime64
		}
	}
	return h
}
