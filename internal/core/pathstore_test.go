package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ucmp/internal/topo"
)

// referenceGroup extracts a group from the DP row the way the build did
// before the packed store: one pointerful Group per pair, nothing shared
// with the packer. It is the reference the store's views are held to.
func referenceGroup(t *RowTables, dst int, m CostModel) *Group {
	g := &Group{Src: t.Src, Dst: dst, StartSlice: int(t.StartSlice)}
	for _, n := range t.entryLevels(nil, dst) {
		g.Entries = append(g.Entries, Entry{
			HopCount:      n,
			LatencySlices: t.end[n][dst] - t.StartSlice + 1,
			Paths:         t.parallelPaths(n, dst),
		})
	}
	g.BuildBuckets(m)
	return g
}

// checkView compares a store view against the reference group field for
// field: entries, latencies, parallel paths in order, hops, thresholds, and
// the entry every global bucket maps to, out-of-range buckets included.
func checkView(t *testing.T, where string, ager *FlowAger, v GroupView, want *Group) {
	t.Helper()
	if v.Src != want.Src || v.Dst != want.Dst || v.StartSlice != want.StartSlice {
		t.Fatalf("%s: view is (%d,%d)@%d", where, v.Src, v.Dst, v.StartSlice)
	}
	if v.NumEntries() != len(want.Entries) || v.NumPaths() != want.NumPaths() {
		t.Fatalf("%s: %d entries %d paths, want %d and %d", where, v.NumEntries(), v.NumPaths(), len(want.Entries), want.NumPaths())
	}
	var scratch Path
	for i, we := range want.Entries {
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
	if !reflect.DeepEqual(v.Thresholds(), want.Thresholds()) && len(want.Thresholds()) > 0 {
		t.Fatalf("%s: thresholds %v, want %v", where, v.Thresholds(), want.Thresholds())
	}
	for b := -2; b <= ager.NumBuckets()+2; b++ {
		if got, want := ager.EntryIndex(v, b), entryIndex(want, ager.EntryForBucket(want, b)); got != want {
			t.Fatalf("%s global bucket %d: entry %d, want %d", where, b, got, want)
		}
	}
	probes := []float64{0, math.Inf(1)}
	for _, thr := range want.Thresholds() {
		probes = append(probes, thr/2, thr, math.Nextafter(thr, math.Inf(1)), thr*2)
	}
	for _, aged := range probes {
		if got, want := v.EntryIndexForAged(aged), entryIndex(want, want.EntryForAged(aged)); got != want {
			t.Fatalf("%s aged %v: entry %d, want %d", where, aged, got, want)
		}
	}
}

func entryIndex(g *Group, e *Entry) int {
	for i := range g.Entries {
		if &g.Entries[i] == e {
			return i
		}
	}
	return -1
}

// TestViewMatchesReferenceGroups: for every (t_start, src, dst) of every
// fabric of the calc_oracle_test set, the store view and the Group materialized from it both
// equal the group extracted independently from the DP tables — on the
// brute-force build and, where the schedule has one, on the symmetric build.
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
							if v := ps.View(ts, src, dst); v.NumEntries() != 0 || ps.Group(ts, src, dst) != nil {
								t.Fatalf("%s: (%d,%d,%d) has a group", where, ts, src, dst)
							}
							continue
						}
						want := referenceGroup(row, dst, ps.Model)
						checkView(t, where, ager, ps.View(ts, src, dst), want)
						if got := ps.Group(ts, src, dst); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: materialized group (%d,%d,%d) differs:\n%s\nwant\n%s",
								where, ts, src, dst, groupString(got), groupString(want))
						}
					}
				}
			}
		}
	}
}

// TestPackerWidthGuards forces every field of the store that is narrower
// than its source past its range: each must fail the packer with an error
// naming the field and the fabric, and write nothing truncated.
func TestPackerWidthGuards(t *testing.T) {
	f := symFabric(t, 8, 4)
	m := CostModel{Alpha: 0.5, LinkBps: float64(f.LinkBps), SliceMicros: f.SliceDuration.Micros()}
	cases := []struct {
		field string
		write func(p *packer)
	}{
		{"hop ToR", func(p *packer) { p.hop(1<<16, 0) }},
		{"hop ToR", func(p *packer) { p.hop(-1, 0) }},
		{"hop relative slice", func(p *packer) { p.hop(0, 1<<16) }},
		{"hop relative slice", func(p *packer) { p.hop(0, -1) }},
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
			p.hop(2, 0)
			p.seal(off)
		}},
		{"spine offset", func(p *packer) { p.spineOffset(math.MaxUint32 + 1) }},
	}
	for _, c := range cases {
		p := newPacker(f, m)
		p.begin(nil)
		c.write(p)
		if p.err == nil {
			t.Fatalf("%s: out-of-range value accepted", c.field)
		}
		msg := p.err.Error()
		if !strings.Contains(msg, `"`+c.field+`"`) || !strings.Contains(msg, "N=8 d=4 S=2") {
			t.Fatalf("%s: error %q does not name the field and the fabric", c.field, msg)
		}
	}
	// A rejected value is stored as zero, never as its low bits.
	p := newPacker(f, m)
	p.begin(nil)
	p.hop(1<<16|5, 1<<16|7)
	if got := p.words[len(p.words)-2:]; got[0] != 0 || got[1] != 0 {
		t.Fatalf("rejected hop stored as %v", got)
	}
	// In range, the same calls leave no error.
	p = newPacker(f, m)
	p.begin(nil)
	p.setEntry(p.header(1), 0, 255, 255, math.MaxUint16)
	p.hop(math.MaxUint16, math.MaxUint16)
	if p.err != nil {
		t.Fatalf("edge values rejected: %v", p.err)
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
		{"hop relative slice", row.end[1][twoHop] + 1, twoHop},
	}
	for _, c := range cases {
		row = calc.ComputeRowInto(0, 0, row)
		row.StartSlice = c.start
		p := newPacker(f, CostModel{Alpha: 0.5, LinkBps: 1, SliceMicros: 1})
		p.begin(nil)
		p.group(row, c.dst)
		if p.err == nil || !strings.Contains(p.err.Error(), `"`+c.field+`"`) {
			t.Fatalf("group(%d) from t_start %d: err = %v, want field %q", c.dst, c.start, p.err, c.field)
		}
	}
}

// TestSealCachesProfilesByShape re-seals every record of every brute-force
// segment of the calc_oracle_test fabrics on a fresh packer. The shape cache
// must hold one id per distinct (hop count, latency) entry sequence — records
// that differ only in path counts share a line — and every id must be the one
// the build stored and the one a seal without the cache interns, in order.
// A record with more entries than a shape key holds is sealed uncached.
func TestSealCachesProfilesByShape(t *testing.T) {
	sharedShapes := 0
	for _, of := range oracleFabrics() {
		ps := BuildPathSetOpts(of.f, 0.5, BuildOptions{NoSymmetry: true})
		for ts, seg := range ps.segs {
			p, ref := newPacker(of.f, ps.Model), newPacker(of.f, ps.Model)
			p.begin(nil)
			ref.begin(nil)
			counts := map[string]string{} // shape -> path counts of its first record
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
				if got, uncached := p.words[at], ref.profileID(int(rec[1]), rec); got != rec[0] || uncached != rec[0] {
					t.Fatalf("%s ts=%d record at %d: sealed id %d, uncached %d, built %d", of.name, ts, off, got, uncached, rec[0])
				}
			}
			if len(p.byShape) != len(counts) {
				t.Fatalf("%s ts=%d: shape cache holds %d ids for %d entry shapes", of.name, ts, len(p.byShape), len(counts))
			}
		}
	}
	if sharedShapes == 0 {
		t.Fatal("no two records share a shape with different path counts: the mask is untested")
	}

	f := oracleFabrics()[0].f
	p := newPacker(f, model(f, 0.5))
	p.begin(nil)
	var ids []uint16
	for _, paths := range []int{1, 2} {
		off := p.offset()
		at := p.header(maxShapeEntries + 1)
		for i := 0; i <= maxShapeEntries; i++ {
			p.setEntry(at, i, i+1, paths, int64(2*maxShapeEntries-i))
			p.words = append(p.words, make([]uint16, 2*i*paths)...)
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
// lengths recLen derives from the headers must tile every segment exactly.
// View by view, every path must report its entry's hop count and end at the
// group's destination in the entry's end slice — the hop the record leaves
// implied.
func checkStoreWalk(t *testing.T, where string, ps *PathSet) {
	t.Helper()
	n, s := ps.F.Sched.N, ps.F.Sched.S
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
	if want := s * n * (n - 1); ps.sym && records != ps.unique || !ps.sym && records != want {
		t.Fatalf("%s: %d records (sym=%v, unique %d, brute wants %d)", where, records, ps.sym, ps.unique, want)
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
// the group record — storing each path's final hop again, say (64 and 85
// B/group) — fails here, not only in the repository benchmark.
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
		{"brute (108,6)", topo.PaperDefault(), false, 52},
		{"symmetric (64,4)", func() topo.Config {
			c := topo.Scaled()
			c.NumToRs, c.Uplinks = 64, 4
			return c
		}(), true, 72},
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
		if c.sym {
			continue
		}
		// The estimate Table 2 budgets brute-force builds with: a sample of
		// rows, scaled — within a few percent.
		est, got := float64(EstimateStoreBytes(f)), float64(fp.StoreBytes+fp.SpineBytes)
		if est < 0.95*got || est > 1.05*got {
			t.Fatalf("%s: EstimateStoreBytes = %.0f, footprint is %.0f", c.name, est, got)
		}
	}
}
