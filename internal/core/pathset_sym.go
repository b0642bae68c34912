package core

import "slices"

// Rotation-symmetric PathSet build (DESIGN.md §12). When the schedule's
// Rotation() witness holds, the DP row of any source ToR is the rotated row
// of ToR 0: NextDirect(a, b, t) = NextDirect(a+k, b+k, t) for every k, the
// DP recursion preserves that equivalence level by level, and the
// source-relative intermediate order makes tie selection equivariant too.
// So the build computes only the O(S·N) canonical rows (t_start, 0, Δ) and
// serves Group(ts, src, dst) by relabeling hops of the canonical group for
// Δ = (dst-src) mod N.
//
// Store records are t_start-relative by construction (pathstore.go), so two
// canonical rows that differ only by a time shift are the same words and
// are stored once: the symmetric build's single segment holds the
// content-deduplicated records, and the per-(ts, Δ) spine is a flat []uint32
// of offsets into it — no N² spine at all.

// Symmetric reports whether this PathSet was built by the rotation-
// symmetric canonical build.
func (ps *PathSet) Symmetric() bool { return ps.sym }

// CanonStats returns the canonical-row count (S·(N-1)) and the number of
// distinct stored records after content dedup.
func (ps *PathSet) CanonStats() (rows, unique int) {
	if !ps.sym {
		return 0, 0
	}
	return ps.F.Sched.S * (ps.F.Sched.N - 1), ps.unique
}

// buildSymmetric fills the PathSet from canonical source-0 rows. The
// per-slice DP fans out over the worker pool exactly like the brute build,
// each worker packing its slice's N−1 records into a transient buffer; the
// interning pass is serial in ascending (t_start, Δ) order so the store and
// spine are deterministic regardless of worker count.
func (ps *PathSet) buildSymmetric(workers int) error {
	n, s := ps.F.Sched.N, ps.F.Sched.S
	rows := make([][]uint16, s) // transient: the N−1 records of each slice, Δ ascending
	err := ps.eachSlice(workers, func() func(*packer, int) {
		var scratch *RowTables
		return func(p *packer, ts int) {
			scratch = ps.Calc.ComputeRowInto(ts, 0, scratch)
			var words int
			words, p.levels = scratch.groupWords(p.levels)
			p.begin(make([]uint16, 0, 1+words))
			for dst := 1; dst < n; dst++ {
				p.group(scratch, dst)
			}
			rows[ts] = p.words[1:]
		}
	})
	if err != nil {
		return err
	}

	p := newPacker(ps.F, ps.Model)
	p.begin(nil)
	byHash := make(map[internKey][]uint32)
	ps.sym = true
	ps.spine = make([]uint32, s*n)
	for ts, row := range rows {
		for delta := 1; delta < n; delta++ {
			l := recLen(row)
			off, fresh := p.intern(byHash, delta, row[:l])
			if fresh {
				ps.unique++
			}
			ps.spine[ts*n+delta] = off
			row = row[l:]
		}
		rows[ts] = nil
	}
	ps.segs = []segment{p.segment()}
	return p.err
}

// internKey buckets stored records by destination offset Δ and content
// hash. A record does not store its paths' final hop, (Δ, t_start+latency−1),
// so records for different Δ may hold equal words; keying on Δ keeps them
// apart, one destination per record, as the canonical codec needs.
type internKey struct {
	delta int
	hash  uint64
}

// intern returns the offset of the stored record for Δ = delta equal to rec
// (whose profile word is still zero), appending and sealing rec first when
// no equal record for delta is in the segment yet.
func (p *packer) intern(byHash map[internKey][]uint32, delta int, rec []uint16) (off uint32, fresh bool) {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range rec[1:] {
		h ^= uint64(w)
		h *= prime
	}
	key := internKey{delta, h}
	for _, cand := range byHash[key] {
		// A record's headers fix its length, so equal words over len(rec)
		// are an equal record.
		if old := p.words[cand:]; len(old) >= len(rec) && slices.Equal(old[1:len(rec)], rec[1:]) {
			return cand, false
		}
	}
	off = p.offset()
	p.words = append(p.words, rec...)
	p.seal(off)
	byHash[key] = append(byHash[key], off)
	return off, true
}
