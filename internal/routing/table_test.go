package routing

import (
	"slices"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

// TestCompiledTableAgreesWithRouter pins the switch-install artifact to the
// planner: every (dst, t_start, bucket) lookup reproduces PlanRoute's hops,
// on the scaled symmetric fabric and on the paper's (108,6) brute-force one.
// No simulation reads a compiled table, so this is the only place the two
// meet.
func TestCompiledTableAgreesWithRouter(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  topo.Config
		tors []int
	}{
		{"scaled16", topo.Scaled(), []int{0}},
		{"paper108", topo.PaperDefault(), []int{0, 53, 107}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := topo.MustFabric(tc.cfg, "round-robin", 1)
			ps := core.BuildPathSet(f, 0.5)
			u := NewUCMP(ps)
			for _, tor := range tc.tors {
				tbl := CompileTable(ps, u.Ager, tor)
				if err := tbl.Validate(ps); err != nil {
					t.Fatal(err)
				}
				if tbl.NumRows() == 0 {
					t.Fatal("empty table")
				}
				for dst := 0; dst < f.NumToRs; dst++ {
					if dst == tor {
						continue
					}
					for ts := 0; ts < f.Sched.S; ts++ {
						for b := 0; b < u.Ager.NumBuckets(); b++ {
							p := dataPacket(f, tor, dst, 1<<20)
							p.Bucket = b
							want, ok := u.PlanRoute(p, tor, 0, int64(ts), nil)
							if !ok {
								t.Fatalf("router failed %d->%d", tor, dst)
							}
							got, ok := tbl.Lookup(dst, ts, b, p.Flow.Hash, int64(ts))
							if !ok {
								t.Fatalf("table miss tor=%d dst=%d ts=%d b=%d", tor, dst, ts, b)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("tor=%d dst=%d ts=%d b=%d: table %v, router %v", tor, dst, ts, b, got, want)
							}
						}
					}
				}
			}
		})
	}
}

func TestCompiledTableSize(t *testing.T) {
	f := fabric(t)
	ps := core.BuildPathSet(f, 0.5)
	u := NewUCMP(ps)
	tbl := CompileTable(ps, u.Ager, 3)
	// Rows are bounded by (N-1) x S x buckets and at least (N-1) x S
	// (one row per group minimum).
	minRows := (f.NumToRs - 1) * f.Sched.S
	maxRows := minRows * u.Ager.NumBuckets()
	if tbl.NumRows() < minRows || tbl.NumRows() > maxRows {
		t.Fatalf("rows %d outside [%d, %d]", tbl.NumRows(), minRows, maxRows)
	}
	// Missing key.
	if _, ok := tbl.Lookup(3, 0, 0, 0, 0); ok {
		t.Fatal("lookup for own ToR should miss")
	}
}
