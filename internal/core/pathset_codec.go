package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ucmp/internal/topo"
)

// Canonical path-set codec (DESIGN.md §11). A symmetric PathSet is two
// blobs:
//
//   - the spine: a little-endian []int32 (S·N entries, -1 at Δ = 0) of
//     record ranks — the position of each slot's group in the store;
//   - the store: the t_start-relative canonical groups as a stream of u32
//     values — per group dst and entry count, per entry hop count, latency
//     and path count, per path its hop count, per hop (to, rel).
//
// The file format is wider than, and independent of, the in-memory packed
// store: the encoder reads every slot's view in (t_start, Δ) order and
// writes its paths' hops out in full, the implied final hop included; the
// decoder checks that hop against dst and latency and packs the rest again,
// slot by slot, so every width guard and peer check of the packer applies
// to file contents too, and a file whose rank serves several slots still
// loads. Profiles are NOT serialized: hulls and thresholds are
// deterministic, α-free functions of the entries (BuildBuckets), so the
// decoder recomputes them — the file stays smaller and can never disagree
// with the cost model it is loaded under.

// EncodeCanonical serializes a symmetric PathSet into its spine and store
// blobs. Errors on brute-force builds, which have no canonical form (and
// would not round-trip at O(S·N)).
func (ps *PathSet) EncodeCanonical() (spine, store []byte, err error) {
	if !ps.sym {
		return nil, nil, fmt.Errorf("core: cannot encode a non-symmetric path set")
	}
	n, s := ps.F.Sched.N, ps.F.Sched.S
	u32 := func(v int) { store = binary.LittleEndian.AppendUint32(store, uint32(v)) }
	u32(s * (n - 1))
	spine = make([]byte, 0, 4*s*n)
	var path Path
	for ts := 0; ts < s; ts++ {
		for delta := 0; delta < n; delta++ {
			if delta == 0 {
				spine = binary.LittleEndian.AppendUint32(spine, ^uint32(0)) // -1
				continue
			}
			g := ps.View(ts, 0, delta)
			if g.NumEntries() == 0 {
				return nil, nil, fmt.Errorf("core: canonical slot (%d,%d) holds no group", ts, delta)
			}
			spine = binary.LittleEndian.AppendUint32(spine, uint32(ts*(n-1)+delta-1))
			u32(delta)
			u32(g.NumEntries())
			for i := 0; i < g.NumEntries(); i++ {
				e := g.Entry(i)
				u32(e.HopCount)
				u32(int(e.LatencySlices))
				u32(e.NumPaths)
				for j := 0; j < e.NumPaths; j++ {
					e.Path(j).Fill(&path)
					u32(len(path.Hops))
					for _, h := range path.Hops {
						u32(h.To)
						u32(int(h.Slice) - ts)
					}
				}
			}
		}
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
// the fabric (cheap — the DP itself is what the file persists). The decoder
// walks the slots in (t_start, Δ) order and packs each slot's group into its
// starting slice's segment, walking the paths from canonical source 0, with
// the profiles recomputed; a file written by this encoder ranks its groups
// in that order, so the store streams through once. Every group, ranked or
// not, is checked against the §4.3 invariants (Group.Validate's); any
// structural violation is an error.
func DecodeCanonical(f *topo.Fabric, alpha float64, maxParallel int, spineBlob, storeBlob []byte) (*PathSet, error) {
	if !f.Sched.Rotation() {
		return nil, fmt.Errorf("core: cannot decode a canonical path set for a non-symmetric schedule")
	}
	ps := newPathSet(f, alpha, maxParallel)
	ps.sym = true
	n, s := f.Sched.N, f.Sched.S
	if len(spineBlob) != 4*s*n {
		return nil, fmt.Errorf("core: spine blob is %d bytes, want %d", len(spineBlob), 4*s*n)
	}

	r := &storeReader{b: storeBlob}
	nGroups, err := r.count("groups", 8)
	if err != nil {
		return nil, err
	}
	// starts notes where each group read so far begins; skipTo checks the
	// groups before gi that no slot has reached yet.
	starts := make([]int, 0, nGroups)
	skipTo := func(gi int) error {
		for len(starts) < gi {
			starts = append(starts, r.off)
			if _, err := readGroup(r, len(starts)-1, n, nil, 0); err != nil {
				return err
			}
		}
		return nil
	}

	ps.segs = make([]segment, s)
	ps.spine = make([]uint32, s*n)
	p := newPacker(f, ps.Model)
	for ts := 0; ts < s; ts++ {
		p.begin(p.words, ts)
		// Spine: Δ = 0 is -1, everything else ranks a group of its own Δ.
		for delta := 0; delta < n; delta++ {
			idx := int(int32(binary.LittleEndian.Uint32(spineBlob[4*(ts*n+delta):])))
			if delta == 0 {
				if idx != -1 {
					return nil, fmt.Errorf("core: spine (%d,0) = %d, want -1", ts, idx)
				}
				continue
			}
			if idx < 0 || idx >= nGroups {
				return nil, fmt.Errorf("core: spine (%d,%d) = %d outside store of %d", ts, delta, idx, nGroups)
			}
			if err := skipTo(idx); err != nil {
				return nil, err
			}
			gr := r
			if idx < len(starts) {
				gr = &storeReader{b: storeBlob, off: starts[idx]} // an earlier slot ranks it too
			} else {
				starts = append(starts, r.off)
			}
			off := p.offset()
			if _, err := readGroup(gr, idx, n, p, delta); err != nil {
				return nil, err
			}
			if p.err != nil {
				return nil, p.err
			}
			p.seal(off)
			if thr := p.profiles[p.words[off]].thr; !sort.Float64sAreSorted(thr) {
				return nil, fmt.Errorf("core: decoded group %d thresholds not ascending: %v", idx, thr)
			}
			ps.spine[ts*n+delta] = off
		}
		seg := p.segment()
		seg.words = slices.Clone(seg.words)
		ps.segs[ts] = seg
	}
	if err := skipTo(nGroups); err != nil {
		return nil, err
	}
	if r.off != len(storeBlob) {
		return nil, fmt.Errorf("core: %d trailing bytes after group store", len(storeBlob)-r.off)
	}
	return ps, nil
}

// readGroup reads group gi at r's cursor, checking it against the §4.3
// invariants, and returns its dst. Given a packer, it also packs the record
// for the slot of Δ = want in the packer's starting slice — refusing a group
// of another dst before packing any of it, and walking every path from
// canonical source 0 — and leaves the profile to seal.
func readGroup(r *storeReader, gi, n int, p *packer, want int) (dst int, err error) {
	if dst, err = r.u32("dst"); err != nil {
		return 0, err
	}
	if dst < 1 || dst >= n {
		return 0, fmt.Errorf("core: group %d dst %d outside [1,%d)", gi, dst, n)
	}
	if p != nil && dst != want {
		return 0, fmt.Errorf("core: spine (%d,%d) ranks group %d, whose dst is %d", p.start, want, gi, dst)
	}
	nEntries, err := r.count("entries", 12)
	if err != nil {
		return 0, err
	}
	if nEntries == 0 {
		return 0, fmt.Errorf("core: decoded group %d is empty", gi)
	}
	at := 0
	if p != nil {
		at = p.header(nEntries)
	}
	prevHops, prevLat := 0, 0
	for ei := 0; ei < nEntries; ei++ {
		hopCount, err := r.u32("hopCount")
		if err != nil {
			return 0, err
		}
		lat, err := r.u32("latency")
		if err != nil {
			return 0, err
		}
		nPaths, err := r.count("paths", 4)
		if err != nil {
			return 0, err
		}
		if nPaths == 0 {
			return 0, fmt.Errorf("core: decoded group %d entry %d has no paths", gi, ei)
		}
		if ei > 0 && (hopCount <= prevHops || lat >= prevLat) {
			return 0, fmt.Errorf("core: decoded group %d violates property 3: %d hops lat %d after %d hops lat %d",
				gi, hopCount, lat, prevHops, prevLat)
		}
		prevHops, prevLat = hopCount, lat
		if p != nil {
			p.setEntry(at, ei, hopCount, nPaths, int64(lat))
		}
		for pi := 0; pi < nPaths; pi++ {
			nHops, err := r.count("hops", 8)
			if err != nil {
				return 0, err
			}
			if nHops == 0 || nHops != hopCount {
				return 0, fmt.Errorf("core: decoded group %d entry hop count %d vs path %d", gi, hopCount, nHops)
			}
			from, to, prev := 0, 0, 0 // the hop leaves ToR from, canonical source 0 first
			for hi := 0; hi < nHops; hi++ {
				rel := 0
				if to, err = r.u32("hop to"); err != nil {
					return 0, err
				}
				if rel, err = r.u32("hop rel"); err != nil {
					return 0, err
				}
				if to < 0 || to >= n || rel < prev {
					return 0, fmt.Errorf("core: group %d hop (%d,%d) out of range or back in time", gi, to, rel)
				}
				prev = rel
				if hi < nHops-1 && p != nil { // the final hop is implied by dst and lat
					p.words = append(p.words, p.hop(from, to, int64(rel)))
				}
				from = to
			}
			if to != dst || prev+1 != lat {
				return 0, fmt.Errorf("core: decoded group %d path ends at ToR %d latency %d, want ToR %d latency %d",
					gi, to, prev+1, dst, lat)
			}
		}
	}
	return dst, nil
}
