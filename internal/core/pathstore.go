package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ucmp/internal/topo"
)

// Packed path store (DESIGN.md §3). Every UCMP group of a PathSet lives as
// one pointer-free record of u16 words in the segment of its starting
// slice; a flat u32 spine maps a (t_start, src, dst) slot to the record's
// word offset (0 = no group: word 0 of every segment is reserved):
//
//	word 0          profile id: the group's interned hull/threshold profile
//	word 1          E, the entry count
//	words 2..2E+1   per entry: hopCount | pathCount<<8, then latency in slices
//	then            per entry, per path, per hop except the last: its hop code
//
// A hop code is a hop the way the ToR it leaves acts on it (§6.2): send on
// uplink u in slice t_start+rel, packed as rel<<b | u with b = bits.Len(d−1).
// The ToR the hop reaches is the schedule's PeerOf(slice, ToR left, u), so a
// view walks each path from its source and reads every label back. A pair
// two switches join in one slice is stored by its lower uplink. Every path
// of an entry ends at dst in slice t_start + latency − 1, so that final hop
// is implied, not stored: the views supply it.
//
// Every build has one segment per starting slice, written by the one worker
// that claimed the slice. A rotation-symmetric build stores source 0's
// records only; its views walk them from ToR 0 and relabel every hop by
// +src. Profile ids are segment-local, which keeps workers lock-free and the
// store bytes independent of goroutine scheduling.
type segment struct {
	words    []uint16
	profiles []profile
}

// profile is the bucket structure shared by every group with the same
// (hop, latency) hull: hull indexes the group's entries on the lower convex
// hull, thr holds the ascending α-free thresholds between consecutive hull
// entries (see bucketProfile). A few hundred distinct profiles cover
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
		n += (h - 1) * p
	}
	return n
}

// hopTable reads hop codes back: the schedule's flat peer table
// (topo.Schedule.Peers) and the code layout. A PathSet holds one, which its
// views point at.
type hopTable struct {
	peers   []int32
	n, d, s int
	shift   uint   // width of the uplink field: bits.Len(d−1)
	mask    uint16 // the uplink field
}

func newHopTable(sched *topo.Schedule) *hopTable {
	shift := uint(bits.Len(uint(sched.D - 1)))
	return &hopTable{peers: sched.Peers(), n: sched.N, d: sched.D, s: sched.S, shift: shift, mask: 1<<shift - 1}
}

// at is the index of the first circuit end of ToR tor in slice start+rel
// (start cyclic, rel ≥ 0). A path ends within a few cycles of t_start, so
// the cyclic slice is a subtraction or two away, no division.
func (h *hopTable) at(start, rel int64, tor int32) int {
	sl := int(start + rel)
	for sl >= h.s {
		sl -= h.s
	}
	return (sl*h.n + int(tor)) * h.d
}

// run returns the d circuit ends of ToR tor in slice start+rel, by uplink.
func (h *hopTable) run(start, rel int64, tor int32) []int32 {
	at := h.at(start, rel, tor)
	return h.peers[at : at+h.d]
}

// peer returns the ToR that uplink u of ToR tor reaches in slice start+rel.
func (h *hopTable) peer(start, rel int64, tor int32, u uint16) int32 {
	return h.peers[h.at(start, rel, tor)+int(u)]
}

// packer writes group records. Every field narrower than its source is
// range-checked where it is written, and every hop code is checked against
// the schedule: the first value that does not fit becomes the packer's
// sticky error, naming the field and the fabric, and the build fails with
// it — nothing is ever truncated.
type packer struct {
	n, d, s int // fabric identity, for error text
	model   CostModel
	hops    *hopTable
	start   int64 // the starting slice of the segment being written

	words []uint16
	err   error

	// Profile interning. A profile is a function of its record's entry
	// shape, so the packer computes each distinct one once, into pool, and
	// keeps it across the segments it writes: byKey indexes pool by profile
	// key, byShape by entry shape (recShape), so bucketProfile and the key
	// run once per shape, not per group or per segment. The segment being
	// written names the pool entries it uses by ids of its own — profiles
	// by id, ids[id] its pool index, local[pool index] the id + 1 (0: not
	// used yet) — numbered in the order they are first sealed.
	pool     []profile
	byKey    map[string]int32
	byShape  map[shapeKey]int32
	profiles []profile
	ids      []int32
	local    []int32
	hull     []int     // bucketProfile scratch
	thr      []float64 // bucketProfile scratch
	key      []byte    // profile key scratch

	levels []int // entryLevels scratch
}

func newPacker(f *topo.Fabric, m CostModel) *packer {
	return &packer{n: f.Sched.N, d: f.Sched.D, s: f.Sched.S, model: m, hops: newHopTable(f.Sched)}
}

// begin starts a fresh segment for starting slice ts in buf's storage,
// discarding its contents.
func (p *packer) begin(buf []uint16, ts int) {
	p.words = append(buf[:0], 0) // word 0 reserved: offset 0 means "no group"
	p.start = int64(ts)
	for _, g := range p.ids {
		p.local[g] = 0
	}
	p.profiles, p.ids = nil, p.ids[:0]
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

// code returns the code of the hop from ToR prev to ToR to on uplink u in
// slice t_start+rel, or 0 with the packer failed when the code does not fit
// its u16 or that uplink does not join the two ToRs in that slice.
func (p *packer) code(prev, to int, rel int64, u int) uint16 {
	switch {
	case !p.fits(rel):
		p.fail("hop code", rel<<p.hops.shift, math.MaxUint16)
	case uint(prev) >= uint(p.n) || uint(u) >= uint(p.d) || int(p.hops.peer(p.start, rel, int32(prev), uint16(u))) != to:
		if p.err == nil {
			p.err = fmt.Errorf("core: path store field %q: ToR %d is not a circuit peer of ToR %d on uplink %d in slice %d on fabric N=%d d=%d S=%d",
				"hop code", to, prev, u, (p.start+rel)%int64(p.s), p.n, p.d, p.s)
		}
	default:
		return uint16(rel)<<p.hops.shift | uint16(u)
	}
	return 0
}

// fits reports whether a hop code has room for relative slice rel.
func (p *packer) fits(rel int64) bool { return rel >= 0 && rel <= math.MaxUint16>>p.hops.shift }

// hop is code on the lowest uplink of prev whose circuit reaches to in slice
// t_start+rel: how the baselines and the codec, which know only the ToRs,
// encode a hop (the DP records the uplink, RowTables.up).
func (p *packer) hop(prev, to int, rel int64) uint16 {
	u := -1
	if p.fits(rel) && uint(prev) < uint(p.n) {
		// Scan every uplink, last to first: where the match sits is random,
		// and a loop without an early exit does not mispredict it.
		run := p.hops.run(p.start, rel, int32(prev))
		for i := len(run) - 1; i >= 0; i-- {
			if run[i] == int32(to) {
				u = i
			}
		}
	}
	if u < 0 {
		return p.code(prev, to, rel, u) // fails, naming the misfit
	}
	return uint16(rel)<<p.hops.shift | uint16(u)
}

// group appends the record of the DP row's group for dst — straight from
// the tables — and returns its spine offset.
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
// how many were written. What a path stores is the whole (n−1)-hop primary
// path to its last intermediate.
func (p *packer) paths(t *RowTables, n, dst int) int {
	if t.end[n][dst] < 0 {
		return 0
	}
	if n == 1 {
		return 1
	}
	if !p.prefix(t, n-1, int(t.last[n][dst])) {
		return 0
	}
	count := 1
	for _, alt := range t.par[n][dst] {
		if p.prefix(t, n-1, int(alt)) {
			count++
		}
	}
	return count
}

// prefix appends the k hop codes of the row's k-hop primary path to m,
// walking its last links back from m (iterative: it runs once per stored
// path, so it must not pay call overhead per hop), and reports whether the
// row holds that path; when it does not, nothing is appended. Each last
// link's uplink is the one the DP recorded (RowTables.up): finding it with
// hop's scan costs the (324,12) build ~10% more CPU.
func (p *packer) prefix(t *RowTables, k, m int) bool {
	at := len(p.words)
	p.words = slices.Grow(p.words, k)[:at+k]
	for ; k >= 1; k-- {
		if m < 0 || t.end[k][m] < 0 {
			p.words = p.words[:at]
			return false
		}
		prev := t.Src
		if k > 1 {
			prev = int(t.last[k][m])
		}
		p.words[at+k-1] = p.code(prev, m, t.end[k][m]-t.StartSlice, int(t.up[k][m]))
		m = prev
	}
	return true
}

// seal finds the bucket structure of the finished record at off (§5.1: the
// lower hull of its (hop, latency) points and the α-free thresholds) and
// stores its segment id in word 0.
func (p *packer) seal(off uint32) {
	rec := p.words[off:]
	shape, ok := recShape(rec)
	g, hit := p.byShape[shape]
	if !ok || !hit {
		g = p.poolIndex(rec)
		if ok {
			if p.byShape == nil {
				p.byShape = make(map[shapeKey]int32)
			}
			p.byShape[shape] = g
		}
	}
	rec[0] = p.localID(g)
}

// localID returns the current segment's id of pool profile g, giving it the
// next id when the segment has not used it yet.
func (p *packer) localID(g int32) uint16 {
	if id := p.local[g]; id > 0 {
		return uint16(id - 1)
	}
	id := p.narrow("profile id", int64(len(p.profiles)), math.MaxUint16)
	if p.err == nil {
		p.profiles = append(p.profiles, p.pool[g])
		p.ids = append(p.ids, g)
		p.local[g] = int32(id) + 1
	}
	return id
}

// shapeKey is a record's entry shape, the whole input of its profile: per
// entry the hop count (8 bits) and latency (16 bits) of its header — the
// path count masked off — packed entry 0 lowest, and the entry count in the
// top byte.
type shapeKey [2]uint64

// maxShapeEntries is the most entries a shapeKey holds: 5 × 24 bits below
// the count byte.
const maxShapeEntries = 5

// recShape returns the record's shape key, or false when the record has more
// entries than a key holds; those records are sealed uncached.
func recShape(rec []uint16) (shapeKey, bool) {
	e := int(rec[1])
	if e > maxShapeEntries {
		return shapeKey{}, false
	}
	var lo, hi uint64
	for i := e - 1; i >= 0; i-- {
		v := uint64(rec[recHeaderWords+2*i]&0xff)<<16 | uint64(rec[recHeaderWords+2*i+1])
		hi = hi<<24 | lo>>40
		lo = lo<<24 | v
	}
	return shapeKey{lo, hi | uint64(e)<<56}, true
}

// bucketProfile appends to hull and thr the bucket structure of the
// record's entries (§5.1). hull gets the indexes of the entries on the lower
// convex hull of their (hop, latency) points: only those minimize the
// linear-in-size uniform cost for some flow size. thr[j] gets the α-free
// boundary (Eqn. 4 domain) at which a flow steps from hull[len(hull)-1-j]
// toward fewer hops — ascending, from the most-hops end, where new flows
// start (bucket 0).
func bucketProfile(rec []uint16, m CostModel, hull []int, thr []float64) ([]int, []float64) {
	point := func(i int) (int64, int64) {
		h, _, lat := recEntry(rec, i)
		return int64(h), lat
	}
	for c := 0; c < int(rec[1]); c++ {
		hc, lc := point(c)
		for len(hull) >= 2 {
			ha, la := point(hull[len(hull)-2])
			hb, lb := point(hull[len(hull)-1])
			// Keep b only if it lies strictly below segment a–c (cross
			// product in (hop, latency) space); otherwise it never wins.
			if (hc-ha)*(lb-la) < (hb-ha)*(lc-la) {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, c)
	}
	for j := len(hull) - 1; j > 0; j-- {
		ha, la := point(hull[j-1]) // fewer hops, higher latency
		hb, lb := point(hull[j])   // more hops, lower latency
		thr = append(thr, m.AlphaFreeBoundary(la, int(ha), lb, int(hb)))
	}
	return hull, thr
}

// poolIndex builds the bucket structure of the record's entries and returns
// the pool index of the equal profile, adding it first when it is new.
func (p *packer) poolIndex(rec []uint16) int32 {
	p.hull, p.thr = bucketProfile(rec, p.model, p.hull[:0], p.thr[:0])
	key := p.key[:0]
	for _, h := range p.hull {
		key = binary.LittleEndian.AppendUint16(key, uint16(h)) // an entry position: below the u16 entry count
	}
	for _, t := range p.thr {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(t))
	}
	p.key = key
	if g, ok := p.byKey[string(key)]; ok {
		return g
	}
	if p.byKey == nil {
		p.byKey = make(map[string]int32)
	}
	g := int32(len(p.pool))
	p.pool = append(p.pool, profile{
		hull: append([]int(nil), p.hull...),
		thr:  append([]float64(nil), p.thr...),
	})
	p.local = append(p.local, 0)
	p.byKey[string(key)] = g
	return g
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
			words += (n - 1) * (1 + len(t.par[n][dst]))
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
	hops *hopTable
	rot  int32 // added to every walked ToR label, mod n: src on a symmetric build, else 0
}

// frame is what a stored path needs to report absolute hops: the hop table
// its codes are read through, its source and destination ToRs, its starting
// slice, the slice its entry ends in (where the implied final hop lands),
// and the ToR relabeling of its group view.
type frame struct {
	hops                      *hopTable
	src, dst, start, end, rot int32
}

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
		at += (h - 1) * p
	}
	h, p, lat := recEntry(g.rec, i)
	return EntryView{
		HopCount: h, LatencySlices: lat, NumPaths: p,
		codes: g.rec[at : at+(h-1)*p],
		f: frame{hops: g.hops, src: int32(g.Src), dst: int32(g.Dst), start: int32(g.StartSlice),
			end: int32(g.StartSlice) + int32(lat) - 1, rot: g.rot},
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

// EntryIndexForAged returns the index of the hull entry minimizing uniform
// cost for a flow whose α-scaled bytes sent equal aged (flow aging, §5.1).
// Bucket 0 (new flows) maps to the globally minimum-latency entry; as the
// flow ages it steps toward fewer hops.
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

// EntryView is one hop-count level of a GroupView: the n-hop
// minimum-latency path plus its tied parallel solutions.
type EntryView struct {
	HopCount      int
	LatencySlices int64
	NumPaths      int

	codes []uint16 // NumPaths × (HopCount − 1) stored hop codes
	f     frame
}

// Path returns parallel path j of the entry.
func (e EntryView) Path(j int) PathView {
	w := e.HopCount - 1
	return PathView{codes: e.codes[j*w : (j+1)*w], f: e.f}
}

// PathView is one path of a GroupView: its stored hop codes, then the
// implied final hop to the group's destination in the entry's end slice.
type PathView struct {
	codes []uint16
	f     frame
}

// HopCount returns hop(p).
func (p PathView) HopCount() int { return len(p.codes) + 1 }

// StartSlice returns the starting slice the hop slices count from.
func (p PathView) StartSlice() int64 { return int64(p.f.start) }

// Hop returns hop k with its absolute ToR label and absolute slice. A hop's
// ToR is read back from the hops before it, so Hop walks k+1 hops: read a
// whole path with Walk.
func (p PathView) Hop(k int) Hop {
	w := p.Walk()
	h, _ := w.Next()
	for ; k > 0; k-- {
		h, _ = w.Next()
	}
	return h
}

// Walk starts an in-order walk over the path's hops at its source. The walk
// reads the view through p, which must outlive it.
func (p *PathView) Walk() HopWalk {
	return HopWalk{p: p, at: p.f.src - p.f.rot}
}

// HopWalk reads a PathView's hops in order, each in O(1) and without
// allocating.
type HopWalk struct {
	p  *PathView
	at int32 // the ToR the walk stands on, before the view's rotation
	k  int32
}

// Next returns the next hop with its absolute ToR label and absolute slice,
// or false once the path's final hop has been returned.
func (w *HopWalk) Next() (Hop, bool) {
	p := w.p
	if int(w.k) >= len(p.codes) {
		return w.final()
	}
	code, h := p.codes[w.k], p.f.hops
	w.k++
	rel := int64(code >> h.shift)
	w.at = h.peer(int64(p.f.start), rel, w.at, code&h.mask)
	to := w.at + p.f.rot
	if int(to) >= h.n {
		to -= int32(h.n)
	}
	return Hop{To: int(to), Slice: int64(p.f.start) + rel}, true
}

// final returns the implied final hop once, then false.
func (w *HopWalk) final() (Hop, bool) {
	if int(w.k) > len(w.p.codes) {
		return Hop{}, false
	}
	w.k++
	return Hop{To: int(w.p.f.dst), Slice: int64(w.p.f.end)}, true
}

// Fill overwrites dst with the path, reusing dst's hop storage: the way to
// hand a stored path to code that takes a *Path without allocating one per
// call.
func (p PathView) Fill(dst *Path) {
	dst.Src, dst.Dst, dst.StartSlice = int(p.f.src), int(p.f.dst), int64(p.f.start)
	dst.Hops = dst.Hops[:0]
	for w := p.Walk(); ; {
		h, ok := w.Next()
		if !ok {
			return
		}
		dst.Hops = append(dst.Hops, h)
	}
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
