package routing

import (
	"encoding/binary"
	"fmt"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
)

// CompiledTable is the per-ToR UCMP source-routing lookup table of §6.2
// (Fig 4): one row per (destination ToR, starting slice) x bucket range,
// whose action data is the SSRR hop list of the selected path (or several
// tied parallel paths for ECMP-style selection by flow hash). It is the
// exact artifact that would be installed into switch SRAM; Table 2's entry
// counts are its size.
//
// The layout is flat and arena-packed rather than map-plus-pointer-spine:
// the (dst, tstart) key space is a dense grid of cells, each cell owning a
// contiguous run of rows in `entries` (located by `cellStart` prefix sums,
// so lookup is O(1) computed indexing plus a short in-cell scan over bucket
// ranges). Adjacent buckets resolving to the same group entry collapse into
// one row carrying the range's first bucket — the hardware folds the bucket
// range into the match key. Action lists and hop lists are content-deduped
// spans into two shared backing arrays: tied paths that recur across rows
// (and, on rotation-symmetric fabrics, across starting slices) are stored
// once. Hop slices are kept t_start-relative, which is both what makes the
// cross-slice dedup fire and what makes symmetric and brute-force builds
// serialize byte-identically.
type CompiledTable struct {
	Tor int

	n, s, nb int // key-space dimensions: ToRs, starting slices, buckets

	cellStart []int32       // len n*s+1; rows of cell c are entries[cellStart[c]:cellStart[c+1]]
	entries   []packedEntry // match rows, grouped by cell, ascending bucketStart
	acts      []actSpan     // action lists: entries reference contiguous runs
	hops      []PackedHop   // shared hop backing array
}

// packedEntry is one match row: the first bucket of its (run-length
// collapsed) bucket range and its action list, a span into acts. Field
// order is part of the fabric-file format (codec.go): 8 bytes, no implicit
// padding, matching the file record {u16 bucketStart, u16 actN, i32
// actStart} so mmap'd regions alias directly on little-endian hosts.
type packedEntry struct {
	bucketStart uint16
	actN        uint16
	actStart    int32
}

// actSpan is one action: a hop list, a span into hops. Also a file record:
// {i32 hopStart, u16 hopN, u16 zero padding} — Go places the same 2 trailing
// padding bytes, which the codec writes as explicit zeros.
type actSpan struct {
	hopStart int32
	hopN     uint16
}

// PackedHop is one SSRR hop with its slice kept relative to the row's
// starting slice; the absolute slice is Rel + fromAbs at lookup time.
type PackedHop struct {
	To  int32
	Rel int32
}

// CompileTable materializes the lookup table for one source ToR.
func CompileTable(ps *core.PathSet, ager *core.FlowAger, tor int) *CompiledTable {
	sched := ps.F.Sched
	n, s, nb := sched.N, sched.S, ager.NumBuckets()
	t := &CompiledTable{Tor: tor, n: n, s: s, nb: nb}
	t.cellStart = make([]int32, n*s+1)
	hopIdx := make(map[string]actSpan) // hop-list content -> span into hops
	actIdx := make(map[string]int32)   // action-list content -> start into acts
	var key []byte
	var spans []actSpan
	for dst := 0; dst < n; dst++ {
		for ts := 0; ts < s; ts++ {
			t.cellStart[dst*s+ts] = int32(len(t.entries))
			if dst == tor {
				continue
			}
			g := ps.View(ts, tor, dst)
			prev := -1
			for b := 0; b < nb; b++ {
				cur := ager.EntryIndex(g, b)
				if cur == prev {
					// Same action as the previous bucket: the previous row's
					// bucket range extends to cover b.
					continue
				}
				prev = cur
				e := g.Entry(cur)
				// Intern each path's hop list, then the action list itself.
				spans = spans[:0]
				key = key[:0]
				for i := 0; i < e.NumPaths; i++ {
					sp := t.internHops(hopIdx, e.Path(i))
					spans = append(spans, sp)
					key = binary.AppendVarint(key, int64(sp.hopStart))
					key = binary.AppendVarint(key, int64(sp.hopN))
				}
				actStart, ok := actIdx[string(key)]
				if !ok {
					actStart = int32(len(t.acts))
					t.acts = append(t.acts, spans...)
					actIdx[string(key)] = actStart
				}
				t.entries = append(t.entries, packedEntry{
					bucketStart: uint16(b),
					actStart:    actStart,
					actN:        uint16(len(spans)),
				})
			}
		}
	}
	t.cellStart[n*s] = int32(len(t.entries))
	return t
}

// internHops returns the deduped span for one path's hop list, with slices
// rebased to the row's starting slice.
func (t *CompiledTable) internHops(hopIdx map[string]actSpan, p core.PathView) actSpan {
	n := p.HopCount()
	key := make([]byte, 0, 8*n)
	for w := p.Walk(); ; {
		h, ok := w.Next()
		if !ok {
			break
		}
		key = binary.LittleEndian.AppendUint32(key, uint32(h.To))
		key = binary.LittleEndian.AppendUint32(key, uint32(h.Slice-p.StartSlice()))
	}
	if sp, ok := hopIdx[string(key)]; ok {
		return sp
	}
	sp := actSpan{hopStart: int32(len(t.hops)), hopN: uint16(n)}
	for i := 0; i < len(key); i += 8 {
		t.hops = append(t.hops, PackedHop{
			To:  int32(binary.LittleEndian.Uint32(key[i:])),
			Rel: int32(binary.LittleEndian.Uint32(key[i+4:])),
		})
	}
	hopIdx[string(key)] = sp
	return sp
}

// Lookup resolves a match key to its hop list, selecting among tied actions
// by hash, and anchors the slices at fromAbs. Keys outside the installed
// (dst, tstart, bucket) domain miss.
func (t *CompiledTable) Lookup(dst, tstart, bucket int, hash uint64, fromAbs int64) ([]netsim.PlannedHop, bool) {
	if dst < 0 || dst >= t.n || tstart < 0 || tstart >= t.s || bucket < 0 || bucket >= t.nb {
		return nil, false
	}
	cell := dst*t.s + tstart
	lo, hi := t.cellStart[cell], t.cellStart[cell+1]
	if lo == hi {
		return nil, false // own-ToR cell: no rows installed
	}
	// The row whose bucket range covers `bucket` is the last one starting at
	// or below it; rows per cell are few (<= #hull entries), so a backward
	// scan beats a binary search.
	i := hi - 1
	for i > lo && int(t.entries[i].bucketStart) > bucket {
		i--
	}
	e := t.entries[i]
	a := t.acts[uint64(e.actStart)+hash%uint64(e.actN)]
	hops := make([]netsim.PlannedHop, 0, a.hopN)
	for _, h := range t.hops[a.hopStart : int(a.hopStart)+int(a.hopN)] {
		hops = append(hops, netsim.PlannedHop{To: int(h.To), AbsSlice: int64(h.Rel) + fromAbs})
	}
	return hops, true
}

// NumRows returns the distinct match rows (the Table 2 "#Entries/ToR"
// quantity for this ToR).
func (t *CompiledTable) NumRows() int { return len(t.entries) }

// NumNaiveRows returns the row count before bucket-range collapse: one row
// per (dst, tstart, bucket) key — the layout a switch without range
// matching would install.
func (t *CompiledTable) NumNaiveRows() int { return (t.n - 1) * t.s * t.nb }

// FootprintBytes returns the packed table's SRAM footprint: match rows,
// action spans, and the deduped hop array, at this layout's field widths.
func (t *CompiledTable) FootprintBytes() int {
	const rowBytes = 8  // bucketStart + actStart + actN
	const spanBytes = 6 // hopStart + hopN
	const hopBytes = 8  // To + Rel
	return len(t.cellStart)*4 + len(t.entries)*rowBytes + len(t.acts)*spanBytes + len(t.hops)*hopBytes
}

// Bytes serializes the table deterministically (little-endian, fixed field
// order). Two tables with identical routing behavior and layout — e.g. one
// compiled from a rotation-symmetric build and one from the brute-force
// build of the same fabric — produce identical bytes; the differential
// tests compare exactly this.
func (t *CompiledTable) Bytes() []byte {
	out := make([]byte, 0, 16+4*len(t.cellStart)+8*len(t.entries)+8*len(t.acts)+8*len(t.hops))
	u32 := func(v int) {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	u32(t.Tor)
	u32(t.n)
	u32(t.s)
	u32(t.nb)
	for _, c := range t.cellStart {
		u32(int(c))
	}
	u32(len(t.entries))
	for _, e := range t.entries {
		u32(int(e.bucketStart))
		u32(int(e.actStart))
		u32(int(e.actN))
	}
	u32(len(t.acts))
	for _, a := range t.acts {
		u32(int(a.hopStart))
		u32(int(a.hopN))
	}
	u32(len(t.hops))
	for _, h := range t.hops {
		u32(int(h.To))
		u32(int(h.Rel))
	}
	return out
}

// Validate checks every installed cell has rows covering bucket 0 onward in
// ascending order and that every action is a non-empty hop list reaching the
// cell's destination.
func (t *CompiledTable) Validate(ps *core.PathSet) error {
	for dst := 0; dst < t.n; dst++ {
		for ts := 0; ts < t.s; ts++ {
			cell := dst*t.s + ts
			lo, hi := t.cellStart[cell], t.cellStart[cell+1]
			if dst == t.Tor {
				if lo != hi {
					return fmt.Errorf("routing: rows installed for own ToR %d", t.Tor)
				}
				continue
			}
			if lo == hi {
				return fmt.Errorf("routing: no rows for dst %d ts %d", dst, ts)
			}
			prev := -1
			for i := lo; i < hi; i++ {
				e := t.entries[i]
				if int(e.bucketStart) <= prev {
					return fmt.Errorf("routing: bucket ranges out of order for dst %d ts %d", dst, ts)
				}
				prev = int(e.bucketStart)
				if e.actN == 0 {
					return fmt.Errorf("routing: empty action list for dst %d ts %d", dst, ts)
				}
				for _, a := range t.acts[e.actStart : int(e.actStart)+int(e.actN)] {
					if a.hopN == 0 || int(t.hops[int(a.hopStart)+int(a.hopN)-1].To) != dst {
						return fmt.Errorf("routing: action does not reach dst %d", dst)
					}
				}
			}
			if t.entries[lo].bucketStart != 0 {
				return fmt.Errorf("routing: first row for dst %d ts %d does not cover bucket 0", dst, ts)
			}
		}
	}
	return nil
}
