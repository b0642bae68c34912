package routing

import (
	"bytes"
	"slices"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/topo"
)

func symDiffFabric(t *testing.T, n, d int) *topo.Fabric {
	return kindDiffFabric(t, "round-robin", n, d)
}

func kindDiffFabric(t *testing.T, kind string, n, d int) *topo.Fabric {
	t.Helper()
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = n, d
	f := topo.MustFabric(cfg, kind, 1)
	if !f.Sched.Rotation() {
		t.Fatalf("%s(%d,%d) not rotation-symmetric", kind, n, d)
	}
	return f
}

// TestCompiledTableBytesSymmetricVsBrute: for every ToR of the small
// symmetric fabrics — across every circulant schedule family — the table
// compiled from the canonical O(S·N) build serializes byte-identically to
// the one compiled from the brute-force O(S·N²) build, across both bucket
// configurations (parallel-path cap 1, which narrows entries to single
// paths, and the default cap 4).
func TestCompiledTableBytesSymmetricVsBrute(t *testing.T) {
	for _, kind := range []string{"round-robin", "opera", "random-circulant"} {
		for _, nd := range [][2]int{{8, 4}, {16, 4}} {
			for _, mp := range []int{1, 4} {
				f := kindDiffFabric(t, kind, nd[0], nd[1])
				sym := core.BuildPathSetOpts(f, 0.5, core.BuildOptions{MaxParallel: mp})
				brute := core.BuildPathSetOpts(f, 0.5, core.BuildOptions{MaxParallel: mp, NoSymmetry: true})
				if !sym.Symmetric() || brute.Symmetric() {
					t.Fatalf("%s(%d,%d): build modes not as requested", kind, nd[0], nd[1])
				}
				agerS, agerB := core.NewFlowAger(sym), core.NewFlowAger(brute)
				if agerS.NumBuckets() != agerB.NumBuckets() {
					t.Fatalf("%s(%d,%d) mp=%d: bucket counts differ: %d vs %d",
						kind, nd[0], nd[1], mp, agerS.NumBuckets(), agerB.NumBuckets())
				}
				for tor := 0; tor < f.NumToRs; tor++ {
					ts := CompileTable(sym, agerS, tor)
					tb := CompileTable(brute, agerB, tor)
					if err := ts.Validate(sym); err != nil {
						t.Fatalf("symmetric table tor %d: %v", tor, err)
					}
					if err := tb.Validate(brute); err != nil {
						t.Fatalf("brute table tor %d: %v", tor, err)
					}
					if !bytes.Equal(ts.Bytes(), tb.Bytes()) {
						t.Fatalf("%s(%d,%d) mp=%d tor %d: compiled tables differ "+
							"(sym rows=%d hops=%d, brute rows=%d hops=%d)",
							kind, nd[0], nd[1], mp, tor, ts.NumRows(), len(ts.hops), tb.NumRows(), len(tb.hops))
					}
				}
			}
		}
	}
}

// TestSymmetricFastPathMatchesGroupPath: on a symmetric fabric the
// planner over the symmetric store, the planner over the brute-force store
// (NoSymmetry reference), and the source ToR's compiled table all yield
// identical hops for every (tor, dst, tstart, bucket).
func TestSymmetricFastPathMatchesGroupPath(t *testing.T) {
	f := symDiffFabric(t, 16, 4)
	sym := core.BuildPathSet(f, 0.5)
	brute := core.BuildPathSetOpts(f, 0.5, core.BuildOptions{NoSymmetry: true})
	uSym := NewUCMP(sym)
	uRef := NewUCMP(brute)
	for tor := 0; tor < f.NumToRs; tor += 3 {
		tbl := CompileTable(sym, uSym.Ager, tor)
		for dst := 0; dst < f.NumToRs; dst++ {
			if dst == tor {
				continue
			}
			for ts := 0; ts < f.Sched.S; ts++ {
				for b := 0; b < uRef.Ager.NumBuckets(); b++ {
					p := dataPacket(f, tor, dst, 1<<20)
					p.Bucket = b
					plan := func(u *UCMP) []netsim.PlannedHop {
						hops, ok := u.PlanRoute(p, tor, 0, int64(ts), nil)
						if !ok {
							t.Fatalf("plan failed %d->%d ts=%d b=%d", tor, dst, ts, b)
						}
						return hops
					}
					want := plan(uRef)
					fromTable, ok := tbl.Lookup(dst, ts, b, p.Flow.Hash, int64(ts))
					if !ok {
						t.Fatalf("table miss %d->%d ts=%d b=%d", tor, dst, ts, b)
					}
					for name, got := range map[string][]netsim.PlannedHop{"fast": plan(uSym), "table": fromTable} {
						if !slices.Equal(got, want) {
							t.Fatalf("%s path differs %d->%d ts=%d b=%d: %v vs %v", name, tor, dst, ts, b, got, want)
						}
					}
				}
			}
		}
	}
}
