// Package switchres models UCMP's switch hardware resource usage (§6, §8,
// Table 2): priority queues per egress port, global flow-aging buckets,
// source-routing table entries per ToR, and the share of switch SRAM those
// entries occupy.
//
// Queues/port and entries/ToR follow the paper's design directly
// (§6.2: queues = time slices per cycle; one table entry per destination ×
// starting slice × bucket). Bucket counts and per-group bucket averages
// come from running the actual offline path calculation on sampled source
// rows, which converges quickly because thresholds are a union across
// groups. The SRAM percentage uses a documented entry-size model (a
// match key plus the SSRR hop list) against a Tofino2-class SRAM budget;
// the paper does not publish its encoding, so absolute percentages are
// model-dependent while the scaling trend is preserved.
package switchres

import (
	"sort"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// TofinoSRAMBytes is the SRAM budget of a Tofino2-class switch ASIC used
// for the percentage column.
const TofinoSRAMBytes = 100 << 20

// Usage is one row of Table 2.
type Usage struct {
	N, D            int
	QueuesPerPort   int
	Buckets         int
	EntriesPerToR   int
	SRAMPct         float64
	AvgGroupBuckets float64
	AvgPathHops     float64

	// NaiveEntriesPerToR is the row count without bucket-range collapse:
	// one entry per destination x starting slice x bucket, the layout a
	// switch without range matching would install. EntriesPerToR is the
	// collapsed count (adjacent buckets resolving to the same group entry
	// share a row).
	NaiveEntriesPerToR int

	// Exact packed-layout numbers, filled by ComputeExact from a real
	// compiled source-routing table (routing.CompiledTable): the collapsed
	// row count, the SRAM footprint of the arena-packed layout with its
	// content-deduped action and hop arrays, and the percentage of the
	// Tofino2-class budget. Zero when only the sampled model ran.
	PackedEntriesPerToR int
	PackedSRAMBytes     int
	PackedSRAMPct       float64
	Exact               bool
}

// Sampling bounds the offline computation for large fabrics.
type Sampling struct {
	// TStarts and Srcs are how many starting slices / source ToRs to
	// sample; zero means min(4, S) and min(8, N).
	TStarts int
	Srcs    int
}

// Compute fills a Table 2 row for the given fabric.
func Compute(f *topo.Fabric, alpha float64, s Sampling) Usage {
	calc := core.NewCalculator(f)
	model := core.CostModel{
		Alpha:       alpha,
		LinkBps:     float64(f.LinkBps),
		SliceMicros: f.SliceDuration.Micros(),
	}
	sched := f.Sched
	u := Usage{N: sched.N, D: sched.D, QueuesPerPort: sched.S}

	nts := s.TStarts
	if nts <= 0 {
		nts = 4
	}
	if nts > sched.S {
		nts = sched.S
	}
	nsrc := s.Srcs
	if nsrc <= 0 {
		nsrc = 8
	}
	if nsrc > sched.N {
		nsrc = sched.N
	}

	seen := make(map[int64]struct{})
	var thresholds []float64
	var bucketSum float64
	var hopSum float64
	var groups, hopsN int
	for i := 0; i < nts; i++ {
		ts := i * sched.S / nts
		for j := 0; j < nsrc; j++ {
			src := j * sched.N / nsrc
			row := calc.ComputeRow(ts, src)
			for dst, sh := range calc.GroupShapes(row, model) {
				if dst == src || len(sh.Hops) == 0 {
					continue
				}
				groups++
				bucketSum += float64(len(sh.Thresholds) + 1)
				for _, h := range sh.Hops {
					hopSum += float64(h)
					hopsN++
				}
				for _, thr := range sh.Thresholds {
					k := int64(thr)
					if _, ok := seen[k]; !ok {
						seen[k] = struct{}{}
						thresholds = append(thresholds, thr)
					}
				}
			}
		}
	}
	sort.Float64s(thresholds)
	u.Buckets = len(thresholds) + 1
	if groups > 0 {
		u.AvgGroupBuckets = bucketSum / float64(groups)
	}
	if hopsN > 0 {
		u.AvgPathHops = hopSum / float64(hopsN)
	}
	// One source-routing entry per destination × starting slice × group
	// bucket (Fig 4); the naive layout installs every global bucket
	// separately instead.
	u.EntriesPerToR = int(float64(sched.N-1) * float64(sched.S) * u.AvgGroupBuckets)
	u.NaiveEntriesPerToR = (sched.N - 1) * sched.S * u.Buckets
	u.SRAMPct = float64(u.EntriesPerToR) * entryBytes(u.AvgPathHops) / TofinoSRAMBytes * 100
	return u
}

// ExactTable reports the compiled-table footprint for one source ToR of an
// already built PathSet: naive and collapsed row counts plus the packed
// layout's SRAM bytes. On a rotation-symmetric schedule every ToR's table
// is a relabeling of the same rows, so one ToR is the whole story.
func ExactTable(ps *core.PathSet, tor int) (naive, packed, sramBytes int) {
	tbl := routing.CompileTable(ps, core.NewFlowAger(ps), tor)
	return tbl.NumNaiveRows(), tbl.NumRows(), tbl.FootprintBytes()
}

// ComputeExact is Compute with the packed columns filled from a real
// compiled table. The PathSet build is cheap on rotation-symmetric
// schedules (the canonical O(S·N) build); on others this costs the full
// brute-force build, whose S·N² groups stay resident in the packed store
// at about 42 B each (0.12 GB at (324,12), 0.77 GB at (768,24)):
// core.EstimateStoreBytes says beforehand whether a fabric fits.
func ComputeExact(f *topo.Fabric, alpha float64, s Sampling) Usage {
	u := Compute(f, alpha, s)
	ps := core.BuildPathSet(f, alpha)
	ager := core.NewFlowAger(ps)
	u.Buckets = ager.NumBuckets() // exact union, not the sampled one
	u.NaiveEntriesPerToR, u.PackedEntriesPerToR, u.PackedSRAMBytes = ExactTable(ps, 0)
	u.PackedSRAMPct = float64(u.PackedSRAMBytes) / TofinoSRAMBytes * 100
	u.Exact = true
	return u
}

// entryBytes models one lookup entry: a 6-byte match key (destination ToR,
// starting slice, bucket) plus per-hop SSRR action data (next-hop ToR,
// egress port, departure slice ≈ 4 bytes each) and pointer overhead.
func entryBytes(avgHops float64) float64 { return 8 + 4*avgHops }
