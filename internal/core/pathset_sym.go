package core

// Rotation-symmetric PathSet build (DESIGN.md §3). When the schedule's
// Rotation() witness holds, the DP row of any source ToR is the rotated row
// of ToR 0: NextDirect(a, b, t) = NextDirect(a+k, b+k, t) for every k, the
// DP recursion preserves that equivalence level by level, and the
// source-relative intermediate order makes tie selection equivariant too.
// So the build computes only the O(S·N) canonical rows (t_start, 0, Δ) and
// serves View(ts, src, dst) by walking the canonical group for
// Δ = (dst-src) mod N from ToR 0 and relabeling every hop by +src. The spine
// is a flat []uint32 indexed t_start·N+Δ — no N² spine at all — and, as on
// a brute-force build, every starting slice has its own segment.

// Symmetric reports whether this PathSet was built by the rotation-
// symmetric canonical build.
func (ps *PathSet) Symmetric() bool { return ps.sym }

// CanonStats returns the canonical-row count, S·(N−1), and the number of
// records stored for those rows — the same number: a record's hop codes
// name uplinks, and an uplink reaches another peer in another slice, so no
// record serves two slots.
func (ps *PathSet) CanonStats() (rows, records int) {
	if !ps.sym {
		return 0, 0
	}
	rows = ps.F.Sched.S * (ps.F.Sched.N - 1)
	return rows, rows
}

// buildSymmetric fills the PathSet from canonical source-0 rows. The
// per-slice DP fans out over the worker pool exactly like the brute build;
// each worker packs its slice's N−1 records into the slice's segment, sized
// exactly from the row.
func (ps *PathSet) buildSymmetric(workers int) error {
	n, s := ps.F.Sched.N, ps.F.Sched.S
	ps.sym = true
	ps.segs = make([]segment, s)
	ps.spine = make([]uint32, s*n)
	return ps.eachSlice(workers, func() func(*packer, int) {
		var row *RowTables
		return func(p *packer, ts int) {
			row = ps.Calc.ComputeRowInto(ts, 0, row)
			var words int
			words, p.levels = row.groupWords(p.levels)
			p.begin(make([]uint16, 0, 1+words), ts)
			spine := ps.spine[ts*n : (ts+1)*n]
			for dst := 1; dst < n; dst++ {
				spine[dst] = p.group(row, dst)
				p.seal(spine[dst])
			}
			ps.segs[ts] = p.segment()
		}
	})
}
