package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ucmp/internal/topo"
)

// refEntry is one hop-count level of a reference group, its paths
// materialized.
type refEntry struct {
	HopCount      int
	LatencySlices int64
	Paths         []*Path
}

// refGroup is a group as the reference extracts it: entries with their
// paths, and the hull and thresholds refHull derives from them.
type refGroup struct {
	Src, Dst, StartSlice int
	Entries              []refEntry
	hull                 []int
	thr                  []float64
}

// referenceGroup extracts a group from the DP row the way the build did
// before the packed store: one pointerful group per pair, nothing shared
// with the packer. It is the reference the store's views are held to.
func referenceGroup(t *RowTables, dst int, m CostModel) *refGroup {
	g := &refGroup{Src: t.Src, Dst: dst, StartSlice: int(t.StartSlice)}
	for _, n := range t.entryLevels(nil, dst) {
		g.Entries = append(g.Entries, refEntry{
			HopCount:      n,
			LatencySlices: t.end[n][dst] - t.StartSlice + 1,
			Paths:         t.parallelPaths(n, dst),
		})
	}
	g.hull, g.thr = refHull(g.Entries, m)
	return g
}

// refHull derives a group's bucket structure from the definition rather
// than a hull walk: entry i is on the lower convex hull of the (hop,
// latency) points iff it lies strictly below the segment between every pair
// of entries on either side of it. thr[j] is the α-free boundary between
// the hull entries j+1 and j+2 counted from the most-hops end.
func refHull(es []refEntry, m CostModel) (hull []int, thr []float64) {
	for i := range es {
		below := true
		for a := 0; a < i && below; a++ {
			for c := i + 1; c < len(es) && below; c++ {
				// i on or above segment a–c, by the cross product.
				dh, dl := int64(es[c].HopCount-es[a].HopCount), es[c].LatencySlices-es[a].LatencySlices
				below = dh*(es[i].LatencySlices-es[a].LatencySlices) < int64(es[i].HopCount-es[a].HopCount)*dl
			}
		}
		if below {
			hull = append(hull, i)
		}
	}
	for j := len(hull) - 1; j > 0; j-- {
		a, b := es[hull[j-1]], es[hull[j]]
		thr = append(thr, m.AlphaFreeBoundary(a.LatencySlices, a.HopCount, b.LatencySlices, b.HopCount))
	}
	return hull, thr
}

// entryForAged is the reference bucket → entry mapping: a flow whose
// α-scaled bytes sent equal aged has crossed every threshold strictly below
// aged, each one step from the most-hops hull entry toward fewer hops.
func (g *refGroup) entryForAged(aged float64) int {
	return g.hull[len(g.hull)-1-sort.SearchFloat64s(g.thr, aged)]
}

// checkView compares a store view against the reference group field for
// field: entries, latencies, parallel paths in order, hops, thresholds, and
// the entry every global bucket maps to, out-of-range buckets included.
func checkView(t *testing.T, where string, ager *FlowAger, v GroupView, want *refGroup) {
	t.Helper()
	if v.Src != want.Src || v.Dst != want.Dst || v.StartSlice != want.StartSlice {
		t.Fatalf("%s: view is (%d,%d)@%d", where, v.Src, v.Dst, v.StartSlice)
	}
	if v.NumEntries() != len(want.Entries) {
		t.Fatalf("%s: %d entries, want %d", where, v.NumEntries(), len(want.Entries))
	}
	var scratch Path
	paths := 0
	for i, we := range want.Entries {
		paths += len(we.Paths)
		e := v.Entry(i)
		if e.HopCount != we.HopCount || e.LatencySlices != we.LatencySlices || e.NumPaths != len(we.Paths) {
			t.Fatalf("%s entry %d: (%d hops, lat %d, %d paths), want (%d, %d, %d)", where, i,
				e.HopCount, e.LatencySlices, e.NumPaths, we.HopCount, we.LatencySlices, len(we.Paths))
		}
		for j, wp := range we.Paths {
			p := e.Path(j)
			if p.HopCount() != len(wp.Hops) || p.StartSlice() != wp.StartSlice {
				t.Fatalf("%s entry %d path %d: %d hops from slice %d", where, i, j, p.HopCount(), p.StartSlice())
			}
			for k, wh := range wp.Hops {
				if p.Hop(k) != wh {
					t.Fatalf("%s entry %d path %d hop %d: %v, want %v", where, i, j, k, p.Hop(k), wh)
				}
			}
			p.Fill(&scratch)
			if !reflect.DeepEqual(&scratch, wp) {
				t.Fatalf("%s entry %d path %d: Fill gave %v, want %v", where, i, j, &scratch, wp)
			}
		}
	}
	if v.NumPaths() != paths {
		t.Fatalf("%s: %d paths, want %d", where, v.NumPaths(), paths)
	}
	if !reflect.DeepEqual(v.Thresholds(), want.thr) && len(want.thr) > 0 {
		t.Fatalf("%s: thresholds %v, want %v", where, v.Thresholds(), want.thr)
	}
	if !reflect.DeepEqual(v.prof.hull, want.hull) {
		t.Fatalf("%s: hull %v, want %v", where, v.prof.hull, want.hull)
	}
	for b := -2; b <= ager.NumBuckets()+2; b++ {
		if got, want := ager.EntryIndex(v, b), want.entryForAged(ager.AgedMidpoint(b)); got != want {
			t.Fatalf("%s global bucket %d: entry %d, want %d", where, b, got, want)
		}
	}
	probes := []float64{0, math.Inf(1)}
	for _, thr := range want.thr {
		probes = append(probes, thr/2, thr, math.Nextafter(thr, math.Inf(1)), thr*2)
	}
	for _, aged := range probes {
		if got, want := v.EntryIndexForAged(aged), want.entryForAged(aged); got != want {
			t.Fatalf("%s aged %v: entry %d, want %d", where, aged, got, want)
		}
	}
}

// TestViewMatchesReferenceGroups: for every (t_start, src, dst) of every
// fabric of the calc_oracle_test set, the store view equals the group
// extracted independently from the DP tables — on the brute-force build
// and, where the schedule has one, on the symmetric build.
func TestViewMatchesReferenceGroups(t *testing.T) {
	for _, of := range oracleFabrics() {
		builds := []*PathSet{BuildPathSetOpts(of.f, 0.5, BuildOptions{NoSymmetry: true})}
		if of.sym {
			builds = append(builds, BuildPathSet(of.f, 0.5))
		}
		if builds[len(builds)-1].Symmetric() != of.sym {
			t.Fatalf("%s: Symmetric() = %v", of.name, !of.sym)
		}
		calc, ager := builds[0].Calc, NewFlowAger(builds[0])
		n, s := of.f.Sched.N, of.f.Sched.S
		var row *RowTables
		for ts := 0; ts < s; ts++ {
			for src := 0; src < n; src++ {
				row = calc.ComputeRowInto(ts, src, row)
				for dst := 0; dst < n; dst++ {
					for _, ps := range builds {
						where := of.name + " sym=" + map[bool]string{true: "1", false: "0"}[ps.Symmetric()]
						if dst == src {
							if v := ps.View(ts, src, dst); v.NumEntries() != 0 || v.NumPaths() != 0 {
								t.Fatalf("%s: (%d,%d,%d) has a group", where, ts, src, dst)
							}
							continue
						}
						checkView(t, where, ager, ps.View(ts, src, dst), referenceGroup(row, dst, ps.Model))
					}
				}
			}
		}
	}
}

// TestPackerWidthGuards forces every header field of the store that is
// narrower than its source past its range: each must fail the packer with
// an error naming the field and the fabric, and write nothing truncated.
// Hop codes have their own test (TestPackerRefusesHops).
func TestPackerWidthGuards(t *testing.T) {
	f := symFabric(t, 8, 4)
	m := CostModel{Alpha: 0.5, LinkBps: float64(f.LinkBps), SliceMicros: f.SliceDuration.Micros()}
	cases := []struct {
		field string
		write func(p *packer)
	}{
		{"entry count", func(p *packer) { p.header(1 << 16) }},
		{"entry hop count", func(p *packer) { p.setEntry(p.header(1), 0, 256, 1, 1) }},
		{"entry path count", func(p *packer) { p.setEntry(p.header(1), 0, 1, 256, 1) }},
		{"entry latency", func(p *packer) { p.setEntry(p.header(1), 0, 1, 1, 1<<16) }},
		{"profile id", func(p *packer) {
			// Fill the segment's profile table to its last id, then seal a
			// record whose profile is new.
			p.profiles = make([]profile, 1<<16)
			off := p.offset()
			at := p.header(2)
			p.setEntry(at, 0, 1, 1, 9)
			p.setEntry(at, 1, 2, 1, 3)
			p.words = append(p.words, 0) // the 2-hop path's one stored hop
			p.seal(off)
		}},
		{"spine offset", func(p *packer) { p.spineOffset(math.MaxUint32 + 1) }},
	}
	for _, c := range cases {
		p := newPacker(f, m)
		p.begin(nil, 0)
		c.write(p)
		if p.err == nil {
			t.Fatalf("%s: out-of-range value accepted", c.field)
		}
		msg := p.err.Error()
		if !strings.Contains(msg, `"`+c.field+`"`) || !strings.Contains(msg, "N=8 d=4 S=2") {
			t.Fatalf("%s: error %q does not name the field and the fabric", c.field, msg)
		}
	}
	// In range, the same calls leave no error.
	p := newPacker(f, m)
	p.begin(nil, 0)
	p.setEntry(p.header(1), 0, 255, 255, math.MaxUint16)
	if p.err != nil {
		t.Fatalf("edge values rejected: %v", p.err)
	}
}

// TestPackerRefusesHops: a hop code must fit its u16, and the uplink it
// names must join the two ToRs in its slice. Either misfit fails the packer
// with an error naming the field and the fabric, and yields a zero word
// rather than anything truncated.
func TestPackerRefusesHops(t *testing.T) {
	f := symFabric(t, 8, 4)
	sched := f.Sched
	const ts = 1
	notPeer, wrongUp := -1, -1
	for to := 1; to < sched.N && notPeer < 0; to++ {
		if sched.SwitchFor(ts, 0, to) < 0 {
			notPeer = to
		}
	}
	for u := 1; u < sched.D && wrongUp < 0; u++ {
		if sched.PeerOf(ts, 0, u) != sched.PeerOf(ts, 0, 0) {
			wrongUp = u
		}
	}
	if notPeer < 0 || wrongUp < 0 {
		t.Fatalf("slice %d: no ToR off ToR 0's circuits (%d) or no second peer (%d)", ts, notPeer, wrongUp)
	}
	maxRel := int64(math.MaxUint16 >> bits.Len(uint(sched.D-1)))
	cases := []struct {
		what, msg string
		write     func(p *packer) uint16
	}{
		{"a ToR no circuit of ToR 0 reaches", "not a circuit peer", func(p *packer) uint16 { return p.hop(0, notPeer, 0) }},
		{"an uplink whose circuit reaches another ToR", "not a circuit peer", func(p *packer) uint16 {
			return p.code(0, sched.PeerOf(ts, 0, 0), 0, wrongUp)
		}},
		{"a ToR past N", "not a circuit peer", func(p *packer) uint16 { return p.hop(0, 1<<16, 0) }},
		{"a code past u16", "cannot hold", func(p *packer) uint16 { return p.hop(0, sched.PeerOf(ts, 0, 0), maxRel+1) }},
		{"a hop before t_start", "cannot hold", func(p *packer) uint16 { return p.hop(0, sched.PeerOf(ts, 0, 0), -1) }},
	}
	for _, c := range cases {
		p := newPacker(f, model(f, 0.5))
		p.begin(nil, ts)
		if got := c.write(p); got != 0 || p.err == nil {
			t.Fatalf("%s: code %#x, err %v; want 0 and an error", c.what, got, p.err)
		}
		msg := p.err.Error()
		if !strings.Contains(msg, `"hop code"`) || !strings.Contains(msg, c.msg) || !strings.Contains(msg, "N=8 d=4 S=2") {
			t.Fatalf("%s: error %q does not name the field, the misfit and the fabric", c.what, msg)
		}
	}
	// At the edge the code fills all 16 bits without an error.
	p := newPacker(f, model(f, 0.5))
	p.begin(nil, ts)
	u := sched.D - 1
	to := sched.PeerOf(int((ts+maxRel)%int64(sched.S)), 0, u)
	if got := p.code(0, to, maxRel, u); got != math.MaxUint16 || p.err != nil {
		t.Fatalf("edge code %#x, err %v; want 0xffff and none", got, p.err)
	}
}

// TestPackerGuardsDPRows: the guards sit on the path the build takes — a
// DP row whose slices do not fit fails group(), and with it the build,
// naming the first field written out of range.
func TestPackerGuardsDPRows(t *testing.T) {
	f := symFabric(t, 8, 4)
	calc := NewCalculator(f)
	row := calc.ComputeRow(0, 0)
	// A destination with a 2-hop entry: that entry's stored first hop is
	// written before the entry's own latency, so a hop can still misfit first.
	twoHop := -1
	for dst := 1; dst < f.Sched.N && twoHop < 0; dst++ {
		if row.end[2][dst] < row.end[1][dst] {
			twoHop = dst
		}
	}
	if twoHop < 0 {
		t.Fatal("no destination with a 2-hop entry")
	}
	cases := []struct {
		field string
		start int64
		dst   int
	}{
		// Every slice lies before t_start: the 1-hop entry stores no hop, so
		// its latency (which guards the implied hop) is the first misfit.
		{"entry latency", 1 << 20, 1},
		// t_start just past the direct path: the 1-hop latency is 0, in range,
		// and the 2-hop path's stored first hop lies before t_start.
		{"hop code", row.end[1][twoHop] + 1, twoHop},
	}
	for _, c := range cases {
		row = calc.ComputeRowInto(0, 0, row)
		row.StartSlice = c.start
		p := newPacker(f, CostModel{Alpha: 0.5, LinkBps: 1, SliceMicros: 1})
		p.begin(nil, 0)
		p.group(row, c.dst)
		if p.err == nil || !strings.Contains(p.err.Error(), `"`+c.field+`"`) {
			t.Fatalf("group(%d) from t_start %d: err = %v, want field %q", c.dst, c.start, p.err, c.field)
		}
	}
}

// TestHopCodesUseLowestUplink: every stored hop names the lowest uplink
// whose circuit reaches its ToR in its slice — the DP's record on UCMP
// builds, the packer's scan on baseline builds and decoded files — so a
// pair two switches join in one slice has one encoding. The symmetric
// round-robin fabrics of the oracle set put their N/2 class on two switches
// of a slice; the test fails when no stored hop rides such a pair.
func TestHopCodesUseLowestUplink(t *testing.T) {
	dupHops := 0
	check := func(where string, ps *PathSet) {
		sched := ps.F.Sched
		n, s := sched.N, sched.S
		srcs := n
		if ps.sym {
			srcs = 1 // records are source 0's
		}
		for ts := 0; ts < s; ts++ {
			for src := 0; src < srcs; src++ {
				for dst := 0; dst < n; dst++ {
					g := ps.View(ts, src, dst)
					for i := 0; i < g.NumEntries(); i++ {
						e := g.Entry(i)
						for j := 0; j < e.NumPaths; j++ {
							at := src
							for k, code := range e.Path(j).codes {
								rel, u := int(code>>ps.hops.shift), int(code&(1<<ps.hops.shift-1))
								sl := (ts + rel) % s
								to := sched.PeerOf(sl, at, u)
								if low := sched.SwitchFor(sl, at, to); low != u {
									t.Fatalf("%s (%d,%d,%d) entry %d path %d hop %d: uplink %d, lowest is %d",
										where, ts, src, dst, i, j, k, u, low)
								}
								for v := u + 1; v < sched.D; v++ {
									if sched.PeerOf(sl, at, v) == to {
										dupHops++
										break
									}
								}
								at = to
							}
						}
					}
				}
			}
		}
	}
	for _, of := range oracleFabrics() {
		check(of.name+" brute", BuildPathSetOpts(of.f, 0.5, BuildOptions{NoSymmetry: true}))
		check(of.name+" ksp-5", BuildKSPPathSet(of.f, 5, false))
		if !of.sym {
			continue
		}
		ps := BuildPathSet(of.f, 0.5)
		check(of.name+" sym", ps)
		spine, store, err := ps.EncodeCanonical()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeCanonical(of.f, 0.5, 0, spine, store)
		if err != nil {
			t.Fatal(err)
		}
		check(of.name+" decoded", dec)
	}
	if dupHops == 0 {
		t.Fatal("no stored hop rides a pair two switches join: the lowest-uplink rule is untested")
	}
}

// TestSealCachesProfilesByShape re-seals every record of every brute-force
// segment of the calc_oracle_test fabrics, one packer per fabric, segment
// after segment. The shape cache must hold one line per distinct (hop count,
// latency) entry sequence — records that differ only in path counts share a
// line — and every id must be the one the build stored and the one a fresh
// packer without the cache interns, in order: a profile pooled in an earlier
// segment takes its id in the later one afresh. A record with more entries
// than a shape key holds is sealed uncached.
func TestSealCachesProfilesByShape(t *testing.T) {
	sharedShapes := 0
	for _, of := range oracleFabrics() {
		ps := BuildPathSetOpts(of.f, 0.5, BuildOptions{NoSymmetry: true})
		p := newPacker(of.f, ps.Model)
		counts := map[string]string{} // shape -> path counts of its first record
		for ts, seg := range ps.segs {
			ref := newPacker(of.f, ps.Model)
			p.begin(nil, ts)
			ref.begin(nil, ts)
			for off := 1; off < len(seg.words); off += recLen(seg.words[off:]) {
				rec := seg.words[off:][:recLen(seg.words[off:])]
				var shape, paths string
				for i := 0; i < int(rec[1]); i++ {
					h, n, lat := recEntry(rec, i)
					shape += fmt.Sprintf("%d/%d ", h, lat)
					paths += fmt.Sprintf("%d ", n)
				}
				if first, ok := counts[shape]; !ok {
					counts[shape] = paths
				} else if first != paths {
					sharedShapes++
				}
				at := p.offset()
				p.words = append(p.words, rec...)
				p.words[at] = 0
				p.seal(at)
				if got, uncached := p.words[at], ref.localID(ref.poolIndex(rec)); got != rec[0] || uncached != rec[0] {
					t.Fatalf("%s ts=%d record at %d: sealed id %d, uncached %d, built %d", of.name, ts, off, got, uncached, rec[0])
				}
			}
			if len(p.byShape) != len(counts) {
				t.Fatalf("%s ts=%d: shape cache holds %d lines for %d entry shapes", of.name, ts, len(p.byShape), len(counts))
			}
			if len(p.profiles) != len(ref.pool) {
				t.Fatalf("%s ts=%d: segment names %d profiles, a fresh packer %d", of.name, ts, len(p.profiles), len(ref.pool))
			}
		}
	}
	if sharedShapes == 0 {
		t.Fatal("no two records share a shape with different path counts: the mask is untested")
	}

	f := oracleFabrics()[0].f
	p := newPacker(f, model(f, 0.5))
	p.begin(nil, 0)
	var ids []uint16
	for _, paths := range []int{1, 2} {
		off := p.offset()
		at := p.header(maxShapeEntries + 1)
		for i := 0; i <= maxShapeEntries; i++ {
			p.setEntry(at, i, i+1, paths, int64(2*maxShapeEntries-i))
			p.words = append(p.words, make([]uint16, i*paths)...)
		}
		p.seal(off)
		ids = append(ids, p.words[off])
	}
	if p.err != nil || len(p.byShape) != 0 || len(p.profiles) != 1 || ids[0] != 0 || ids[1] != 0 {
		t.Fatalf("two %d-entry records of one shape: ids %v, %d profiles, %d cached shapes, err %v",
			maxShapeEntries+1, ids, len(p.profiles), len(p.byShape), p.err)
	}
}

// checkStoreWalk walks the packed store two ways. Record by record, the
// lengths recLen derives from the headers must tile every segment exactly,
// one segment per starting slice. View by view, every path must report its
// entry's hop count and end at the group's destination in the entry's end
// slice — the hop the record leaves implied.
func checkStoreWalk(t *testing.T, where string, ps *PathSet) {
	t.Helper()
	n, s := ps.F.Sched.N, ps.F.Sched.S
	if len(ps.segs) != s {
		t.Fatalf("%s: %d segments for %d starting slices", where, len(ps.segs), s)
	}
	records := 0
	for i, seg := range ps.segs {
		off := 1
		for ; off < len(seg.words); records++ {
			off += recLen(seg.words[off:])
		}
		if off != len(seg.words) {
			t.Fatalf("%s: segment %d records end at word %d of %d", where, i, off, len(seg.words))
		}
	}
	want := s * n * (n - 1)
	if ps.sym {
		want = s * (n - 1)
	}
	if records != want {
		t.Fatalf("%s: %d records (sym=%v), want %d", where, records, ps.sym, want)
	}
	for ts := 0; ts < s; ts++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				v := ps.View(ts, src, dst)
				for i := 0; i < v.NumEntries(); i++ {
					e := v.Entry(i)
					want := Hop{To: dst, Slice: int64(ts) + e.LatencySlices - 1}
					for j := 0; j < e.NumPaths; j++ {
						p := e.Path(j)
						if p.HopCount() != e.HopCount || p.Hop(p.HopCount()-1) != want {
							t.Fatalf("%s (%d,%d,%d) entry %d path %d: %d hops ending %v, want %d ending %v",
								where, ts, src, dst, i, j, p.HopCount(), p.Hop(p.HopCount()-1), e.HopCount, want)
						}
					}
				}
			}
		}
	}
}

// TestStoreWalkOracleFabrics runs the store walk on both builds of every
// fabric of the calc_oracle_test set.
func TestStoreWalkOracleFabrics(t *testing.T) {
	for _, of := range oracleFabrics() {
		checkStoreWalk(t, of.name+" brute", BuildPathSetOpts(of.f, 0.5, BuildOptions{NoSymmetry: true}))
		if of.sym {
			checkStoreWalk(t, of.name+" sym", BuildPathSet(of.f, 0.5))
		}
	}
}

// TestPathStoreFootprint is the tier-1 layout guard: a change that fattens
// the group record — storing each hop as a ToR label and a slice again, say
// (46.6 B/group at (108,6)) — fails here, not only in the repository
// benchmark.
func TestPathStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the (108,6) path set")
	}
	cases := []struct {
		name     string
		cfg      topo.Config
		sym      bool
		maxBytes float64 // per group
	}{
		{"brute (108,6)", topo.PaperDefault(), false, 35},
		{"symmetric (64,4)", func() topo.Config {
			c := topo.Scaled()
			c.NumToRs, c.Uplinks = 64, 4
			return c
		}(), true, 59},
	}
	for _, c := range cases {
		f := topo.MustFabric(c.cfg, "round-robin", 1)
		ps := BuildPathSet(f, 0.5)
		if ps.Symmetric() != c.sym {
			t.Fatalf("%s: Symmetric() = %v", c.name, ps.Symmetric())
		}
		fp := ps.Footprint()
		n, s := f.Sched.N, f.Sched.S
		wantGroups := s * n * (n - 1)
		if c.sym {
			wantGroups = s * (n - 1)
		}
		if fp.Groups != wantGroups {
			t.Fatalf("%s: %d groups, want %d", c.name, fp.Groups, wantGroups)
		}
		if fp.SpineBytes == 0 || fp.StoreBytes == 0 {
			t.Fatalf("%s: empty footprint %+v", c.name, fp)
		}
		if b := fp.BytesPerGroup(); b > c.maxBytes {
			t.Fatalf("%s: %.1f B/group, over the %.0f B guard (%s)", c.name, b, c.maxBytes, fp)
		}
		t.Logf("%s: %s", c.name, fp)
		checkStoreWalk(t, c.name, ps)
	}
}
