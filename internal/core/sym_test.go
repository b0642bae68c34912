package core

import (
	"fmt"
	"strings"
	"testing"

	"ucmp/internal/topo"
)

func symFabric(t *testing.T, n, d int) *topo.Fabric {
	return kindFabric(t, "round-robin", n, d)
}

func kindFabric(t *testing.T, kind string, n, d int) *topo.Fabric {
	t.Helper()
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = n, d
	f, err := topo.NewFabric(cfg, kind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Sched.Rotation() {
		t.Fatalf("%s(%d,%d) not rotation-symmetric", kind, n, d)
	}
	return f
}

// groupString renders everything observable about a group: entry structure,
// every path's absolute hops, the hull, and the thresholds.
func groupString(g *Group) string {
	var b strings.Builder
	fmt.Fprintf(&b, "src=%d dst=%d ts=%d hull=%v thr=%v\n", g.Src, g.Dst, g.StartSlice, g.hull, g.thrFree)
	for _, e := range g.Entries {
		fmt.Fprintf(&b, " h=%d lat=%d paths=%d\n", e.HopCount, e.LatencySlices, len(e.Paths))
		for _, p := range e.Paths {
			fmt.Fprintf(&b, "  %d->%d@%d:", p.Src, p.Dst, p.StartSlice)
			for _, hp := range p.Hops {
				fmt.Fprintf(&b, " (%d,%d)", hp.To, hp.Slice)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestSymmetricBuildMatchesBrute is the tentpole differential: on small
// symmetric fabrics — across every circulant schedule family — the
// canonical O(S·N) build must be group-for-group identical to the
// brute-force O(S·N²) build — same entries, same absolute hop sequences,
// same parallel-path sets, same hulls and thresholds — for every
// (t_start, src, dst) and across both bucket configurations (MaxParallel 1
// and the default 4).
func TestSymmetricBuildMatchesBrute(t *testing.T) {
	for _, kind := range []string{"round-robin", "opera", "random-circulant"} {
		for _, nd := range [][2]int{{8, 4}, {16, 4}} {
			for _, mp := range []int{1, 4} {
				f := kindFabric(t, kind, nd[0], nd[1])
				sym := BuildPathSetOpts(f, 0.5, BuildOptions{MaxParallel: mp})
				if !sym.Symmetric() {
					t.Fatalf("%s(%d,%d): symmetric build not taken", kind, nd[0], nd[1])
				}
				brute := BuildPathSetOpts(f, 0.5, BuildOptions{MaxParallel: mp, NoSymmetry: true})
				if brute.Symmetric() {
					t.Fatalf("%s(%d,%d): NoSymmetry ignored", kind, nd[0], nd[1])
				}
				s, n := f.Sched.S, f.Sched.N
				for ts := 0; ts < s; ts++ {
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							if src == dst {
								continue
							}
							gs := groupString(sym.Group(ts, src, dst))
							gb := groupString(brute.Group(ts, src, dst))
							if gs != gb {
								t.Fatalf("%s(%d,%d) mp=%d group (%d,%d,%d) differs:\nsym:\n%s\nbrute:\n%s",
									kind, nd[0], nd[1], mp, ts, src, dst, gs, gb)
							}
						}
					}
				}
				// The derived global structures must agree too.
				st, bt := sym.GlobalThresholds(), brute.GlobalThresholds()
				if len(st) != len(bt) {
					t.Fatalf("threshold counts differ: %d vs %d", len(st), len(bt))
				}
				for i := range st {
					if st[i] != bt[i] {
						t.Fatalf("threshold %d differs: %v vs %v", i, st[i], bt[i])
					}
				}
				sg, sp := sym.SingleSliceShare()
				bg, bp := brute.SingleSliceShare()
				if sg != bg || sp != bp {
					t.Fatalf("single-slice shares differ: (%v,%v) vs (%v,%v)", sg, sp, bg, bp)
				}
			}
		}
	}
}

// TestScheduleHStaticRotationExact: the vertex-transitive fast path (one
// BFS per slice) must agree with the exhaustive all-pairs diameter on
// symmetric schedules of every circulant kind.
func TestScheduleHStaticRotationExact(t *testing.T) {
	for _, kind := range []string{"round-robin", "opera", "random-circulant"} {
		for _, nd := range [][2]int{{16, 4}, {64, 4}, {64, 8}} {
			f := kindFabric(t, kind, nd[0], nd[1])
			if got, want := scheduleHStatic(f.Sched), f.Sched.MaxDiameter(); got != want {
				t.Errorf("%s(%d,%d): scheduleHStatic = %d, MaxDiameter = %d",
					kind, nd[0], nd[1], got, want)
			}
		}
	}
}

// TestSymmetricBuildWorkerInvariance: the store segments and spine must be
// byte-identical regardless of worker count (each slice's segment is written
// by the one worker that claimed it).
func TestSymmetricBuildWorkerInvariance(t *testing.T) {
	f := symFabric(t, 16, 4)
	want := StoreFingerprint(BuildPathSetOpts(f, 0.5, BuildOptions{Workers: 1}))
	for _, w := range []int{2, 3, 8} {
		if got := StoreFingerprint(BuildPathSetOpts(f, 0.5, BuildOptions{Workers: w})); got != want {
			t.Fatalf("workers=%d: store fingerprint %016x, want %016x", w, got, want)
		}
	}
}

// TestCanonStats: the spine covers S·(N-1) rows, each with its own record
// in its starting slice's segment, and every record validates as the
// source-0 group of its slot.
func TestCanonStats(t *testing.T) {
	f := symFabric(t, 16, 4)
	ps := BuildPathSet(f, 0.5)
	n, s := f.Sched.N, f.Sched.S
	rows, records := ps.CanonStats()
	if rows != s*(n-1) || records != rows {
		t.Fatalf("CanonStats = (%d,%d), want (%d,%d)", rows, records, s*(n-1), s*(n-1))
	}
	for ts, seg := range ps.segs {
		found := 0
		for off := 1; off < len(seg.words); off += recLen(seg.words[off:]) {
			found++
		}
		if found != n-1 {
			t.Fatalf("slice %d segment holds %d records, want %d", ts, found, n-1)
		}
		for delta := 1; delta < n; delta++ {
			if err := ps.View(ts, 0, delta).Materialize().Validate(); err != nil {
				t.Fatalf("slot (%d,%d): %v", ts, delta, err)
			}
		}
	}
	// Non-symmetric builds report zero.
	cfg := topo.Scaled()
	bf := topo.MustFabric(cfg, "round-robin", 1) // 16 ToRs, 3 uplinks: circle method
	bps := BuildPathSet(bf, 0.5)
	if bps.Symmetric() {
		t.Fatal("circle-method schedule took the symmetric build")
	}
	if r, u := bps.CanonStats(); r != 0 || u != 0 {
		t.Fatalf("non-symmetric CanonStats = (%d,%d)", r, u)
	}
}

// TestSymmetricOpera1024 builds UCMP on the rotation-symmetric Opera(1024,8)
// — 512 starting slices of 1023 canonical records each, more distinct
// profiles than one u16-indexed segment could name — and holds sampled
// views to the groups of freshly computed DP rows.
func TestSymmetricOpera1024(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1024-ToR Opera path set")
	}
	f := kindFabric(t, "opera", 1024, 8)
	ps := BuildPathSetWith(f, 0.5, 0)
	if !ps.Symmetric() {
		t.Fatal("Opera(1024,8) took the brute-force build")
	}
	ager := NewFlowAger(ps)
	var row *RowTables
	for _, ts := range []int{0, 1, f.Sched.S/2 + 1, f.Sched.S - 1} {
		for _, src := range []int{0, 1, 513, 1023} {
			row = ps.Calc.ComputeRowInto(ts, src, row)
			for dst := 0; dst < f.Sched.N; dst += 7 {
				if dst == src {
					continue
				}
				where := fmt.Sprintf("opera(1024,8) (%d,%d,%d)", ts, src, dst)
				checkView(t, where, ager, ps.View(ts, src, dst), referenceGroup(row, dst, ps.Model))
			}
		}
	}
}

// TestEffectiveWorkers pins the clamp: never above the task count, never
// below one, GOMAXPROCS default for non-positive requests.
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct{ req, tasks, want int }{
		{8, 3, 3},
		{2, 5, 2},
		{1, 5, 1},
		{5, 1, 1},
		{16, 16, 16},
		{3, 0, 1}, // degenerate task count still yields a worker
	}
	for _, c := range cases {
		if got := effectiveWorkers(c.req, c.tasks); got != c.want {
			t.Errorf("effectiveWorkers(%d,%d) = %d, want %d", c.req, c.tasks, got, c.want)
		}
	}
	if got := effectiveWorkers(0, 2); got < 1 || got > 2 {
		t.Errorf("effectiveWorkers(0,2) = %d, want within [1,2]", got)
	}
	if got := effectiveWorkers(-1, 1000); got < 1 || got > 1000 {
		t.Errorf("effectiveWorkers(-1,1000) = %d out of range", got)
	}
}

// TestRowTablesMatchFullTablesWithTies: a RowTables scratch reused across
// sources must reproduce the full DP's rows including tie lists on an
// asymmetric schedule too (it is also the switchres sampling path).
func TestRowTablesMatchFullTablesWithTies(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1) // 16/3: circle method
	calc := NewCalculator(f)
	for _, ts := range []int{0, f.Sched.S - 1} {
		full := calc.Compute(ts)
		var rt *RowTables
		for src := 0; src < f.Sched.N; src += 5 {
			rt = calc.ComputeRowInto(ts, src, rt)
			if msg := diffRows(rt, &full.rows[src]); msg != "" {
				t.Fatalf("ts=%d src=%d (reused row vs full): %s", ts, src, msg)
			}
		}
	}
}
