package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ucmp/internal/topo"
)

// Canonical path-set codec (DESIGN.md §14). A symmetric PathSet is two
// blobs:
//
//   - the spine: a little-endian []int32 (S·N entries, -1 at Δ = 0) of
//     record ranks — the position of each slot's record in the store;
//   - the store: the deduplicated t_start-relative canonical groups as a
//     stream of u32 values — per group dst and entry count, per entry hop
//     count, latency and path count, per path its hop count, per hop
//     (to, rel).
//
// The file format is wider than, and independent of, the in-memory packed
// store: the encoder walks the segment's records in order, writing each
// path's implied final hop out in full, and the decoder checks that hop
// against dst and latency and packs the rest again — every width guard of
// the packer applies to file contents too. Profiles are NOT serialized:
// hulls and thresholds are deterministic, α-free functions of the entries
// (BuildBuckets), so the decoder recomputes them — the file stays smaller
// and can never disagree with the cost model it is loaded under.

// EncodeCanonical serializes a symmetric PathSet into its spine and store
// blobs. Errors on brute-force builds, which have no canonical form (and
// would not round-trip at O(S·N)).
func (ps *PathSet) EncodeCanonical() (spine, store []byte, err error) {
	if !ps.sym {
		return nil, nil, fmt.Errorf("core: cannot encode a non-symmetric path set")
	}
	seg := &ps.segs[0]
	n := ps.F.Sched.N
	u32 := func(v int) { store = binary.LittleEndian.AppendUint32(store, uint32(v)) }
	u32(ps.unique)
	// A record serves one Δ (the intern key and the decoder's spine check
	// see to that), which is the dst every one of its paths ends at.
	dst := make(map[uint32]int, ps.unique)
	for slot, off := range ps.spine {
		dst[off] = slot % n
	}
	// Records sit in the segment in the order they were interned, which is
	// the rank the spine refers to them by.
	rank := make(map[uint32]int32, ps.unique)
	for off := 1; off < len(seg.words); {
		rank[uint32(off)] = int32(len(rank))
		delta, ok := dst[uint32(off)]
		if !ok {
			return nil, nil, fmt.Errorf("core: record at word %d serves no spine slot", off)
		}
		g := GroupView{Dst: delta, rec: seg.words[off:], n: int32(n)}
		u32(delta)
		u32(g.NumEntries())
		for i := 0; i < g.NumEntries(); i++ {
			e := g.Entry(i)
			u32(e.HopCount)
			u32(int(e.LatencySlices))
			u32(e.NumPaths)
			for j := 0; j < e.NumPaths; j++ {
				u32(e.HopCount)
				path := e.Path(j)
				for k := 0; k < e.HopCount; k++ {
					h := path.Hop(k)
					u32(h.To)
					u32(int(h.Slice))
				}
			}
		}
		off += recLen(g.rec)
	}
	spine = make([]byte, 0, 4*len(ps.spine))
	for _, off := range ps.spine {
		idx := int32(-1)
		if off != 0 {
			idx = rank[off]
		}
		spine = binary.LittleEndian.AppendUint32(spine, uint32(idx))
	}
	return spine, store, nil
}

// storeReader walks the group store with bounds checking, so truncated or
// corrupted blobs surface as errors, never panics or partial path sets.
type storeReader struct {
	b   []byte
	off int
}

func (r *storeReader) u32(what string) (int, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("core: truncated group store at %s (offset %d)", what, r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(int32(v)), nil
}

// count reads a record count and sanity-checks it against the bytes left at
// a minimum record size, so a corrupted count cannot trigger a huge
// allocation before the cursor would hit the end anyway.
func (r *storeReader) count(what string, minRec int) (int, error) {
	n, err := r.u32(what)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > (len(r.b)-r.off)/minRec {
		return 0, fmt.Errorf("core: group store claims %d %s beyond its %d bytes", n, what, len(r.b))
	}
	return n, nil
}

// DecodeCanonical rebuilds a symmetric PathSet from its codec blobs for the
// given fabric and cost-model parameters. The calculator is rederived from
// the fabric (cheap — the DP itself is what the file persists), the groups
// are packed into a fresh store segment with their profiles recomputed, and
// every group is checked against the §4.3 invariants (Group.Validate's) as
// it streams through; any structural violation is an error.
func DecodeCanonical(f *topo.Fabric, alpha float64, maxParallel int, spineBlob, storeBlob []byte) (*PathSet, error) {
	if !f.Sched.Rotation() {
		return nil, fmt.Errorf("core: cannot decode a canonical path set for a non-symmetric schedule")
	}
	calc := NewCalculator(f)
	if maxParallel > 0 {
		calc.MaxParallel = maxParallel
	}
	ps := &PathSet{
		F:    f,
		Calc: calc,
		Model: CostModel{
			Alpha:       alpha,
			LinkBps:     float64(f.LinkBps),
			SliceMicros: f.SliceDuration.Micros(),
		},
		sym: true,
	}
	n, s := f.Sched.N, f.Sched.S
	if len(spineBlob) != 4*s*n {
		return nil, fmt.Errorf("core: spine blob is %d bytes, want %d", len(spineBlob), 4*s*n)
	}

	r := &storeReader{b: storeBlob}
	nGroups, err := r.count("groups", 8)
	if err != nil {
		return nil, err
	}
	p := newPacker(f, ps.Model)
	p.begin(make([]uint16, 0, 1+len(storeBlob)/4)) // every record word comes from its own u32
	offs, dsts := make([]uint32, nGroups), make([]int32, nGroups)
	for gi := range offs {
		dst, err := r.u32("dst")
		if err != nil {
			return nil, err
		}
		if dst < 1 || dst >= n {
			return nil, fmt.Errorf("core: group %d dst %d outside [1,%d)", gi, dst, n)
		}
		dsts[gi] = int32(dst)
		nEntries, err := r.count("entries", 12)
		if err != nil {
			return nil, err
		}
		if nEntries == 0 {
			return nil, fmt.Errorf("core: decoded group %d is empty", gi)
		}
		offs[gi] = p.offset()
		at := p.header(nEntries)
		prevHops, prevLat := 0, 0
		for ei := 0; ei < nEntries; ei++ {
			hopCount, err := r.u32("hopCount")
			if err != nil {
				return nil, err
			}
			lat, err := r.u32("latency")
			if err != nil {
				return nil, err
			}
			nPaths, err := r.count("paths", 4)
			if err != nil {
				return nil, err
			}
			if nPaths == 0 {
				return nil, fmt.Errorf("core: decoded group %d entry %d has no paths", gi, ei)
			}
			if ei > 0 && (hopCount <= prevHops || lat >= prevLat) {
				return nil, fmt.Errorf("core: decoded group %d violates property 3: %d hops lat %d after %d hops lat %d",
					gi, hopCount, lat, prevHops, prevLat)
			}
			prevHops, prevLat = hopCount, lat
			p.setEntry(at, ei, hopCount, nPaths, int64(lat))
			for pi := 0; pi < nPaths; pi++ {
				nHops, err := r.count("hops", 8)
				if err != nil {
					return nil, err
				}
				if nHops == 0 || nHops != hopCount {
					return nil, fmt.Errorf("core: decoded group %d entry hop count %d vs path %d", gi, hopCount, nHops)
				}
				to, prev := 0, 0
				for hi := 0; hi < nHops; hi++ {
					rel, err := 0, error(nil)
					if to, err = r.u32("hop to"); err != nil {
						return nil, err
					}
					if rel, err = r.u32("hop rel"); err != nil {
						return nil, err
					}
					if to < 0 || to >= n || rel < prev {
						return nil, fmt.Errorf("core: group %d hop (%d,%d) out of range or back in time", gi, to, rel)
					}
					prev = rel
					if hi < nHops-1 { // the final hop is implied by dst and lat
						p.hop(to, int64(rel))
					}
				}
				if to != dst || prev+1 != lat {
					return nil, fmt.Errorf("core: decoded group %d path ends at ToR %d latency %d, want ToR %d latency %d",
						gi, to, prev+1, dst, lat)
				}
			}
		}
		if p.err != nil {
			return nil, p.err
		}
		p.seal(offs[gi])
		if thr := p.profiles[p.words[offs[gi]]].thr; !sort.Float64sAreSorted(thr) {
			return nil, fmt.Errorf("core: decoded group %d thresholds not ascending: %v", gi, thr)
		}
	}
	if r.off != len(storeBlob) {
		return nil, fmt.Errorf("core: %d trailing bytes after group store", len(storeBlob)-r.off)
	}
	if p.err != nil {
		return nil, p.err
	}

	// Spine: Δ = 0 is -1, everything else ranks a record of the store.
	ps.spine = make([]uint32, s*n)
	for i := range ps.spine {
		idx := int32(binary.LittleEndian.Uint32(spineBlob[4*i:]))
		if i%n == 0 {
			if idx != -1 {
				return nil, fmt.Errorf("core: spine (%d,0) = %d, want -1", i/n, idx)
			}
		} else if idx < 0 || int(idx) >= nGroups {
			return nil, fmt.Errorf("core: spine (%d,%d) = %d outside store of %d", i/n, i%n, idx, nGroups)
		} else if int(dsts[idx]) != i%n {
			return nil, fmt.Errorf("core: spine (%d,%d) ranks group %d, whose dst is %d", i/n, i%n, idx, dsts[idx])
		} else {
			ps.spine[i] = offs[idx]
		}
	}
	ps.unique = nGroups
	ps.segs = []segment{p.segment()}
	return ps, nil
}
