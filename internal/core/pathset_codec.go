package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ucmp/internal/byteview"
	"ucmp/internal/topo"
)

// Canonical path-set codec (DESIGN.md §15). A symmetric PathSet is two
// blobs:
//
//   - the spine: the raw little-endian []int32 canonIdx array (S·N entries,
//     -1 at Δ = 0), aliasable straight out of an mmap'd region;
//   - the store: the interned t_start-relative canonical groups as a stream
//     of u32 records — per group dst and entry count, per entry hop count,
//     latency and path count, per path its hop count, per hop (to, rel).
//
// Hulls and thresholds are NOT serialized: they are deterministic, α-free
// functions of the entries (BuildBuckets), so the decoder recomputes them —
// the file stays smaller and can never disagree with the cost model it is
// loaded under. Decoded groups live in a fresh group arena; only the spine
// aliases the blob.

// DecodeOptions tunes DecodeCanonical.
type DecodeOptions struct {
	// NoAlias forces the copying decode of the spine even where aliasing
	// would be legal — the differential path for testing, and an escape
	// hatch for callers that must outlive the blob's backing memory.
	NoAlias bool
}

// EncodeCanonical serializes a symmetric PathSet into its spine and store
// blobs. Errors on brute-force builds, which have no canonical form (and
// would not round-trip at O(S·N)).
func (ps *PathSet) EncodeCanonical() (spine, store []byte, err error) {
	if !ps.sym {
		return nil, nil, fmt.Errorf("core: cannot encode a non-symmetric path set")
	}
	spine = make([]byte, 0, 4*len(ps.canonIdx))
	for _, idx := range ps.canonIdx {
		spine = binary.LittleEndian.AppendUint32(spine, uint32(idx))
	}
	u32 := func(v int) { store = binary.LittleEndian.AppendUint32(store, uint32(v)) }
	u32(len(ps.interned))
	for _, g := range ps.interned {
		u32(g.Dst)
		u32(len(g.Entries))
		for _, e := range g.Entries {
			if e.LatencySlices < 0 || e.LatencySlices > math.MaxUint32 {
				return nil, nil, fmt.Errorf("core: canonical latency %d outside codec range", e.LatencySlices)
			}
			u32(e.HopCount)
			u32(int(e.LatencySlices))
			u32(len(e.Paths))
			for _, p := range e.Paths {
				u32(len(p.Hops))
				for _, hp := range p.Hops {
					if hp.Slice < 0 || hp.Slice > math.MaxUint32 {
						return nil, nil, fmt.Errorf("core: canonical hop slice %d outside codec range", hp.Slice)
					}
					u32(hp.To)
					u32(int(hp.Slice))
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
// the fabric (cheap — the DP itself is what the file persists), the spine
// aliases spineBlob where possible, the interned groups are decoded into a
// fresh arena, and every hull/threshold is recomputed via BuildBuckets.
// Every decoded group is validated; any structural violation is an error.
func DecodeCanonical(f *topo.Fabric, alpha float64, maxParallel int, spineBlob, storeBlob []byte, opt DecodeOptions) (*PathSet, error) {
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
	if !opt.NoAlias {
		ps.canonIdx, _ = byteview.Of[int32](spineBlob, s*n)
	}
	if ps.canonIdx == nil {
		ps.canonIdx = make([]int32, s*n)
		for i := range ps.canonIdx {
			ps.canonIdx[i] = int32(binary.LittleEndian.Uint32(spineBlob[4*i:]))
		}
	}

	r := &storeReader{b: storeBlob}
	nGroups, err := r.count("groups", 8)
	if err != nil {
		return nil, err
	}
	arena := newArenaFor(nGroups + 1)
	ps.interned = make([]*Group, 0, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		dst, err := r.u32("dst")
		if err != nil {
			return nil, err
		}
		if dst < 1 || dst >= n {
			return nil, fmt.Errorf("core: group %d dst %d outside [1,%d)", gi, dst, n)
		}
		nEntries, err := r.count("entries", 12)
		if err != nil {
			return nil, err
		}
		g := arena.groups.one()
		g.Src, g.Dst, g.StartSlice = 0, dst, 0
		g.Entries = arena.entries.take(nEntries)
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
			paths := arena.ptrs.take(nPaths)
			for pi := 0; pi < nPaths; pi++ {
				nHops, err := r.count("hops", 8)
				if err != nil {
					return nil, err
				}
				p := arena.paths.one()
				p.Src, p.Dst, p.StartSlice = 0, dst, 0
				p.Hops = arena.hops.take(nHops)
				for hi := 0; hi < nHops; hi++ {
					to, err := r.u32("hop to")
					if err != nil {
						return nil, err
					}
					rel, err := r.u32("hop rel")
					if err != nil {
						return nil, err
					}
					if to < 0 || to >= n || rel < 0 {
						return nil, fmt.Errorf("core: group %d hop (%d,%d) out of range", gi, to, rel)
					}
					p.Hops[hi] = Hop{To: to, Slice: int64(rel)}
				}
				paths[pi] = p
			}
			g.Entries[ei] = Entry{HopCount: hopCount, LatencySlices: int64(uint32(lat)), Paths: paths}
		}
		g.hull = arena.ints.take(len(g.Entries))[:0]
		if len(g.Entries) > 1 {
			g.thrFree = arena.floats.take(len(g.Entries) - 1)[:0]
		}
		g.BuildBuckets(ps.Model)
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("core: decoded group %d invalid: %w", gi, err)
		}
		ps.interned = append(ps.interned, g)
	}
	if r.off != len(storeBlob) {
		return nil, fmt.Errorf("core: %d trailing bytes after group store", len(storeBlob)-r.off)
	}

	// Spine sanity: Δ = 0 is -1, everything else points into the store.
	for ts := 0; ts < s; ts++ {
		for delta := 0; delta < n; delta++ {
			idx := ps.canonIdx[ts*n+delta]
			if delta == 0 {
				if idx != -1 {
					return nil, fmt.Errorf("core: spine (%d,0) = %d, want -1", ts, idx)
				}
			} else if idx < 0 || int(idx) >= len(ps.interned) {
				return nil, fmt.Errorf("core: spine (%d,%d) = %d outside store of %d", ts, delta, idx, len(ps.interned))
			}
		}
	}
	return ps, nil
}
