// Package switchres reports UCMP's switch hardware resource usage (§6, §8,
// Table 2): priority queues per egress port, global flow-aging buckets,
// source-routing table entries per ToR, and the share of switch SRAM those
// entries occupy.
//
// Queues/port follow the paper's design directly (§6.2: queues = time
// slices per cycle). Every other column is read off what a simulation run
// routes on: the bucket count is the built PathSet's flow ager, and the
// entry counts and SRAM bytes are those of ToR 0's compiled
// source-routing table (routing.CompiledTable). The SRAM percentage is
// taken against a Tofino2-class budget; the paper does not publish its
// encoding, so absolute percentages are layout-dependent while the scaling
// trend is preserved.
package switchres

import (
	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// TofinoSRAMBytes is the SRAM budget of a Tofino2-class switch ASIC used
// for the percentage column.
const TofinoSRAMBytes = 100 << 20

// Usage is one row of Table 2.
type Usage struct {
	N, D          int
	QueuesPerPort int
	Buckets       int

	// NaiveEntriesPerToR is the row count without bucket-range collapse:
	// one entry per destination x starting slice x bucket, the layout a
	// switch without range matching would install.
	NaiveEntriesPerToR int

	// The compiled table's collapsed row count (adjacent buckets resolving
	// to the same group entry share a row), the SRAM footprint of its
	// arena-packed layout with content-deduped action and hop arrays, and
	// the percentage of the Tofino2-class budget.
	PackedEntriesPerToR int
	PackedSRAMBytes     int
	PackedSRAMPct       float64
}

// ExactTable reports the compiled-table footprint for one source ToR of an
// already built PathSet: naive and collapsed row counts plus the packed
// layout's SRAM bytes. On a rotation-symmetric schedule every ToR's table
// is a relabeling of the same rows, so one ToR is the whole story.
func ExactTable(ps *core.PathSet, tor int) (naive, packed, sramBytes int) {
	tbl := routing.CompileTable(ps, core.NewFlowAger(ps), tor)
	return tbl.NumNaiveRows(), tbl.NumRows(), tbl.FootprintBytes()
}

// ComputeExact fills a Table 2 row for the given fabric from its built
// PathSet and ToR 0's compiled table. The PathSet build is cheap on
// rotation-symmetric schedules (the canonical O(S·N) build); on others
// this costs the full brute-force build, whose S·N² groups stay resident
// in the packed store (0.55 GB at (768,24)).
func ComputeExact(f *topo.Fabric, alpha float64) Usage {
	ps := core.BuildPathSet(f, alpha)
	u := Usage{N: f.Sched.N, D: f.Sched.D, QueuesPerPort: f.Sched.S,
		Buckets: core.NewFlowAger(ps).NumBuckets()}
	u.NaiveEntriesPerToR, u.PackedEntriesPerToR, u.PackedSRAMBytes = ExactTable(ps, 0)
	u.PackedSRAMPct = float64(u.PackedSRAMBytes) / TofinoSRAMBytes * 100
	return u
}
