package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// StoreFingerprint is FNV-1a over everything a PathSet's packed store holds:
// the spine, then every segment's words and its profiles' hulls and
// thresholds, in order. Two builds with equal fingerprints stored the same
// bytes.
func StoreFingerprint(ps *PathSet) uint64 {
	h := fnv.New64a()
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	flush := func() {
		h.Write(b)
		b = b[:0]
	}
	for _, off := range ps.spine {
		u32(off)
	}
	flush()
	for _, seg := range ps.segs {
		u32(uint32(len(seg.words)))
		for _, w := range seg.words {
			b = binary.LittleEndian.AppendUint16(b, w)
		}
		u32(uint32(len(seg.profiles)))
		for _, pr := range seg.profiles {
			u32(uint32(len(pr.hull)))
			for _, i := range pr.hull {
				u32(uint32(i))
			}
			u32(uint32(len(pr.thr)))
			for _, thr := range pr.thr {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(thr))
			}
		}
		flush()
	}
	return h.Sum64()
}
