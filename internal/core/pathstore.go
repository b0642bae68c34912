package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ucmp/internal/topo"
)

// Packed path store (DESIGN.md §7). Every UCMP group of a PathSet lives as
// one pointer-free record of u16 words inside a segment; a flat u32 spine
// maps a (t_start, src, dst) slot to the record's word offset (0 = no
// group: word 0 of every segment is reserved). Records are t_start-relative
// and, on rotation-symmetric builds, source-relative, so the same bytes
// serve every slot they are equal for:
//
//	word 0          profile id: the group's interned hull/threshold profile
//	word 1          E, the entry count
//	words 2..2E+1   per entry: hopCount | pathCount<<8, then latency in slices
//	then            per entry, per path, per hop except the last: next ToR,
//	                slice − t_start
//
// Every path of an entry ends at dst in slice t_start + latency − 1, so that
// final hop is implied, not stored: the views supply it.
//
// A brute-force build has one segment per starting slice (each written by
// the one worker that claimed the slice, then copied out at its exact
// size); a symmetric build has a single segment holding the
// content-deduplicated canonical records. Profile ids are segment-local,
// which keeps workers lock-free and the store bytes independent of
// goroutine scheduling.
type segment struct {
	words    []uint16
	profiles []profile
}

// profile is the bucket structure shared by every group with the same
// (hop, latency) hull: hull indexes the group's entries on the lower convex
// hull, thr holds the ascending α-free thresholds between consecutive hull
// entries (see Group.BuildBuckets). A few hundred distinct profiles cover
// millions of groups.
type profile struct {
	hull []int
	thr  []float64
}

const (
	recHeaderWords = 2 // profile id, entry count
	maxEntryHops   = math.MaxUint8
	maxEntryPaths  = math.MaxUint8
)

// recEntry decodes entry i's header words.
func recEntry(rec []uint16, i int) (hops, paths int, latency int64) {
	w := rec[recHeaderWords+2*i]
	return int(w & 0xff), int(w >> 8), int64(rec[recHeaderWords+2*i+1])
}

// recLen returns the record's length in words, derived from its headers.
func recLen(rec []uint16) int {
	e := int(rec[1])
	n := recHeaderWords + 2*e
	for i := 0; i < e; i++ {
		h, p, _ := recEntry(rec, i)
		n += 2 * (h - 1) * p
	}
	return n
}

// packer writes group records. Every field narrower than its source is
// range-checked where it is written: the first value that does not fit
// becomes the packer's sticky error, naming the field and the fabric, and
// the build fails with it — nothing is ever truncated.
type packer struct {
	n, d, s int // fabric identity, for error text
	model   CostModel

	words []uint16
	err   error

	// Profile interning for the segment being written.
	profiles []profile
	byKey    map[string]uint16
	shape    Group  // BuildBuckets scratch: entries without paths
	key      []byte // profile key scratch

	levels []int // entryLevels scratch
	hops   []Hop // path reconstruction scratch
}

func newPacker(f *topo.Fabric, m CostModel) *packer {
	return &packer{n: f.Sched.N, d: f.Sched.D, s: f.Sched.S, model: m}
}

// begin starts a fresh segment in buf's storage, discarding its contents.
func (p *packer) begin(buf []uint16) {
	p.words = append(buf[:0], 0) // word 0 reserved: offset 0 means "no group"
	p.profiles, p.byKey = nil, nil
}

// segment returns what has been written since begin.
func (p *packer) segment() segment {
	return segment{words: p.words, profiles: p.profiles}
}

func (p *packer) fail(field string, v, max int64) {
	if p.err == nil {
		p.err = fmt.Errorf("core: path store field %q cannot hold %d (range 0..%d) on fabric N=%d d=%d S=%d",
			field, v, max, p.n, p.d, p.s)
	}
}

// narrow range-checks v against a field of the given maximum.
func (p *packer) narrow(field string, v, max int64) uint16 {
	if v < 0 || v > max {
		p.fail(field, v, max)
		return 0
	}
	return uint16(v)
}

// offset is the spine value for a record starting at the current end of the
// segment.
func (p *packer) offset() uint32 { return p.spineOffset(len(p.words)) }

// spineOffset range-checks a word offset against the u32 spine.
func (p *packer) spineOffset(words int) uint32 {
	if int64(words) > math.MaxUint32 {
		p.fail("spine offset", int64(words), math.MaxUint32)
		return 0
	}
	return uint32(words)
}

// header appends a record's two header words with the profile id left zero
// (seal fills it) plus zeroed entry headers, returning the index of the
// first entry header word.
func (p *packer) header(entries int) int {
	p.words = append(p.words, 0, p.narrow("entry count", int64(entries), math.MaxUint16))
	at := len(p.words)
	for i := 0; i < entries; i++ {
		p.words = append(p.words, 0, 0)
	}
	return at
}

// setEntry fills entry header i of the record whose entry headers start at
// word `at`. latency − 1 is also the relative slice of the entry's implied
// final hop, so the latency guard covers that hop.
func (p *packer) setEntry(at, i, hopCount, paths int, latency int64) {
	h := p.narrow("entry hop count", int64(hopCount), maxEntryHops)
	n := p.narrow("entry path count", int64(paths), maxEntryPaths)
	p.words[at+2*i] = h | n<<8
	p.words[at+2*i+1] = p.narrow("entry latency", latency, math.MaxUint16)
}

// hop appends one hop: the next ToR and its slice relative to t_start.
func (p *packer) hop(to int, rel int64) {
	p.words = append(p.words,
		p.narrow("hop ToR", int64(to), math.MaxUint16),
		p.narrow("hop relative slice", rel, math.MaxUint16))
}

// group appends the record of the DP row's group for dst — straight from
// the tables, with no intermediate Group — and returns its spine offset.
// Properties 1 and 2 come from the per-hop-count minimality of the tables,
// property 3 from entryLevels. The profile id is still zero: see seal.
func (p *packer) group(t *RowTables, dst int) uint32 {
	off := p.offset()
	p.levels = t.entryLevels(p.levels[:0], dst)
	at := p.header(len(p.levels))
	for i, n := range p.levels {
		p.setEntry(at, i, n, p.paths(t, n, dst), t.end[n][dst]-t.StartSlice+1)
	}
	return off
}

// paths appends every retained n-hop minimum-latency path of the row for
// dst (the primary plus its ties), each without its final hop, and returns
// how many were written.
func (p *packer) paths(t *RowTables, n, dst int) int {
	if cap(p.hops) < n {
		p.hops = make([]Hop, n)
	}
	hops := p.hops[:n]
	if !t.fill(hops, n, dst) {
		return 0
	}
	p.path(hops[:n-1], t.StartSlice)
	count := 1
	for _, alt := range t.par[n][dst] {
		if t.fill(hops[:n-1], n-1, int(alt)) {
			p.path(hops[:n-1], t.StartSlice)
			count++
		}
	}
	return count
}

// path appends the hops a record stores of a path: all but its final one,
// which the caller leaves off.
func (p *packer) path(hops []Hop, start int64) {
	for _, h := range hops {
		p.hop(h.To, h.Slice-start)
	}
}

// seal computes the bucket structure of the finished record at off (§5.1:
// the lower hull of its (hop, latency) points and the α-free thresholds),
// interns it as a profile of the segment and stores the id in word 0.
func (p *packer) seal(off uint32) {
	rec := p.words[off:]
	p.shape.Entries = p.shape.Entries[:0]
	for i, e := 0, int(rec[1]); i < e; i++ {
		h, _, lat := recEntry(rec, i)
		p.shape.Entries = append(p.shape.Entries, Entry{HopCount: h, LatencySlices: lat})
	}
	p.shape.BuildBuckets(p.model)
	key := p.key[:0]
	for _, h := range p.shape.hull {
		key = binary.LittleEndian.AppendUint16(key, uint16(h)) // an entry position: below the u16 entry count
	}
	for _, t := range p.shape.thrFree {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(t))
	}
	p.key = key
	id, ok := p.byKey[string(key)]
	if !ok {
		if p.byKey == nil {
			p.byKey = make(map[string]uint16)
		}
		id = p.narrow("profile id", int64(len(p.profiles)), math.MaxUint16)
		p.profiles = append(p.profiles, profile{
			hull: append([]int(nil), p.shape.hull...),
			thr:  append([]float64(nil), p.shape.thrFree...),
		})
		p.byKey[string(key)] = id
	}
	rec[0] = id
}

// groupWords counts the record words of every group of one DP row, for
// exact segment sizing.
func (t *RowTables) groupWords(levels []int) (words int, scratch []int) {
	for dst := 0; dst < t.N; dst++ {
		if dst == t.Src {
			continue
		}
		levels = t.entryLevels(levels[:0], dst)
		words += recHeaderWords + 2*len(levels)
		for _, n := range levels {
			words += 2 * (n - 1) * (1 + len(t.par[n][dst]))
		}
	}
	return words, levels
}

// GroupView is a read-only, allocation-free view of one UCMP group in the
// packed store: PathSet.View returns it by value. On a symmetric build the
// record is the canonical (source 0) one and the view carries the +src
// rotation; every accessor already reports absolute ToR labels and absolute
// slices, so callers never see the difference. The zero GroupView (src ==
// dst) has no entries.
type GroupView struct {
	Src, Dst   int
	StartSlice int

	rec  []uint16
	prof *profile
	rot  int32 // added to every stored ToR label, mod n
	n    int32
}

// frame is what a stored path needs to report absolute hops: its source
// and destination ToRs, its starting slice, the slice its entry ends in
// (where the implied final hop lands), and the ToR relabeling of its group
// view.
type frame struct{ src, dst, start, end, rot, n int32 }

// NumEntries returns the number of hop-count levels of the group.
func (g GroupView) NumEntries() int {
	if g.rec == nil {
		return 0
	}
	return int(g.rec[1])
}

// NumPaths returns the total number of paths, parallels included.
func (g GroupView) NumPaths() int {
	total := 0
	for i, e := 0, g.NumEntries(); i < e; i++ {
		_, p, _ := recEntry(g.rec, i)
		total += p
	}
	return total
}

// Entry returns entry i (ascending hop count).
func (g GroupView) Entry(i int) EntryView {
	at := recHeaderWords + 2*int(g.rec[1])
	for j := 0; j < i; j++ {
		h, p, _ := recEntry(g.rec, j)
		at += 2 * (h - 1) * p
	}
	h, p, lat := recEntry(g.rec, i)
	return EntryView{
		HopCount: h, LatencySlices: lat, NumPaths: p,
		hops: g.rec[at : at+2*(h-1)*p],
		f: frame{src: int32(g.Src), dst: int32(g.Dst), start: int32(g.StartSlice),
			end: int32(g.StartSlice) + int32(lat) - 1, rot: g.rot, n: g.n},
	}
}

// Path returns path i of the group counting across entries in order: the
// flat list a hash pick over the whole group indexes (0 ≤ i < NumPaths).
func (g GroupView) Path(i int) PathView {
	for e := 0; ; e++ {
		_, n, _ := recEntry(g.rec, e)
		if i < n {
			return g.Entry(e).Path(i)
		}
		i -= n
	}
}

// Thresholds returns the group's ascending α-free bucket boundaries (Eqn.
// 4). Shared and read-only.
func (g GroupView) Thresholds() []float64 { return g.prof.thr }

// EntryIndexForAged is Group.EntryForAged on the packed record: the index
// of the hull entry minimizing uniform cost for a flow whose α-scaled bytes
// sent equal aged.
func (g GroupView) EntryIndexForAged(aged float64) int {
	// Thresholds strictly below aged = buckets stepped through so far; the
	// lists hold a handful of values, so a scan beats a binary search.
	thr := g.prof.thr
	crossed := 0
	for crossed < len(thr) && thr[crossed] < aged {
		crossed++
	}
	return g.prof.hull[len(g.prof.hull)-1-crossed]
}

// Materialize builds the pointerful Group for callers that want to hold or
// walk one (analysis, failure classification, examples, tests). It
// allocates; hull and thresholds are shared with the store and read-only.
// The zero view materializes to nil.
func (g GroupView) Materialize() *Group {
	if g.rec == nil {
		return nil
	}
	out := &Group{
		Src: g.Src, Dst: g.Dst, StartSlice: g.StartSlice,
		Entries: make([]Entry, g.NumEntries()),
		hull:    g.prof.hull,
		thrFree: g.prof.thr,
	}
	for i := range out.Entries {
		e := g.Entry(i)
		paths := make([]*Path, e.NumPaths)
		for j := range paths {
			paths[j] = &Path{}
			e.Path(j).Fill(paths[j])
		}
		out.Entries[i] = Entry{HopCount: e.HopCount, LatencySlices: e.LatencySlices, Paths: paths}
	}
	return out
}

// EntryView is one hop-count level of a GroupView: the n-hop
// minimum-latency path plus its tied parallel solutions.
type EntryView struct {
	HopCount      int
	LatencySlices int64
	NumPaths      int

	hops []uint16 // NumPaths × (HopCount − 1) stored (to, rel) pairs
	f    frame
}

// Path returns parallel path j of the entry.
func (e EntryView) Path(j int) PathView {
	w := 2 * (e.HopCount - 1)
	return PathView{hops: e.hops[j*w : (j+1)*w], f: e.f}
}

// PathView is one path of a GroupView: its stored hops, then the implied
// final hop to the group's destination in the entry's end slice.
type PathView struct {
	hops []uint16
	f    frame
}

// HopCount returns hop(p).
func (p PathView) HopCount() int { return len(p.hops)/2 + 1 }

// StartSlice returns the starting slice the hop slices count from.
func (p PathView) StartSlice() int64 { return int64(p.f.start) }

// Hop returns hop k with its absolute ToR label and absolute slice.
func (p PathView) Hop(k int) Hop {
	if 2*k == len(p.hops) {
		return Hop{To: int(p.f.dst), Slice: int64(p.f.end)}
	}
	to := int32(p.hops[2*k]) + p.f.rot
	if to >= p.f.n {
		to -= p.f.n
	}
	return Hop{To: int(to), Slice: int64(p.hops[2*k+1]) + int64(p.f.start)}
}

// Fill overwrites dst with the path, reusing dst's hop storage: the way to
// hand a stored path to code that takes a *Path without allocating one per
// call.
func (p PathView) Fill(dst *Path) {
	n := p.HopCount()
	dst.Src, dst.StartSlice = int(p.f.src), int64(p.f.start)
	dst.Hops = dst.Hops[:0]
	for k := 0; k < n; k++ {
		dst.Hops = append(dst.Hops, p.Hop(k))
	}
	dst.Dst = dst.Hops[n-1].To
}

// Footprint is the resident size of a PathSet's packed store.
type Footprint struct {
	// Groups counts the stored (t_start, src, dst) slots: S·N·(N−1) on a
	// brute-force build, the S·(N−1) canonical rows on a symmetric one.
	Groups int
	// StoreBytes covers the group records and their profiles; SpineBytes
	// the offset spine.
	StoreBytes int64
	SpineBytes int64
}

// BytesPerGroup is the whole footprint divided over the groups.
func (fp Footprint) BytesPerGroup() float64 {
	if fp.Groups == 0 {
		return 0
	}
	return float64(fp.StoreBytes+fp.SpineBytes) / float64(fp.Groups)
}

// String renders "G groups, X MB store, Y B/group".
func (fp Footprint) String() string {
	return fmt.Sprintf("%d groups, %.1f MB store, %.1f B/group",
		fp.Groups, float64(fp.StoreBytes+fp.SpineBytes)/1e6, fp.BytesPerGroup())
}

// EstimateStoreBytes predicts the Footprint total of the brute-force build
// of f without running it: the record words of a few source rows at t_start
// 0 — counted exactly as the build writes them — scaled to all S·N rows,
// plus the spine.
func EstimateStoreBytes(f *topo.Fabric) int64 {
	calc := NewCalculator(f)
	n, s := f.Sched.N, f.Sched.S
	var row *RowTables
	var levels []int
	words, sampled := 0, 0
	for src := 0; src < n; src += max(1, n/8) {
		row = calc.ComputeRowInto(0, src, row)
		var w int
		w, levels = row.groupWords(levels)
		words += w
		sampled++
	}
	rows := int64(s) * int64(n)
	return 2*int64(words)*rows/int64(sampled) + 4*rows*int64(n)
}
