package routing

import (
	"testing"

	"ucmp/internal/core"
)

// TestUCMPBackupFallback exercises the §5.3 backup path: when failure
// filtering rejects every group path, PlanRoute must fall back to a 2-hop
// backup whose intermediate honors TorOK.
func TestUCMPBackupFallback(t *testing.T) {
	f := fabric(t)
	ps := core.BuildPathSet(f, 0.5)
	u := NewUCMP(ps)
	// Reject every precomputed group path by content: the group is
	// effectively exhausted for all (src, dst), forcing the backup
	// machinery (a 2-hop backup that coincides with a group path is
	// rejected with it, which the routed > 0 check tolerates).
	grouped := make(map[string]bool)
	var gp core.Path
	for ts := 0; ts < f.Sched.S; ts++ {
		for src := 0; src < f.NumToRs; src++ {
			for dst := 0; dst < f.NumToRs; dst++ {
				if src == dst {
					continue
				}
				g := ps.View(ts, src, dst)
				for i := 0; i < g.NumPaths(); i++ {
					g.Path(i).Fill(&gp)
					grouped[gp.String()] = true
				}
			}
		}
	}
	badToR := 3
	u.Health = StaticHealth{
		Path: func(p *core.Path) bool { return !grouped[p.String()] },
		Tor:  func(tor int) bool { return tor != badToR },
	}

	routed := 0
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst || src == badToR || dst == badToR {
				continue
			}
			for fromAbs := int64(0); fromAbs < 3; fromAbs++ {
				p := dataPacket(f, src, dst, 1<<20)
				hops, ok := u.PlanRoute(p, src, 0, fromAbs, nil)
				if !ok {
					continue
				}
				routed++
				validRoute(t, f, src, dst, fromAbs, hops)
				if len(hops) != 2 {
					t.Fatalf("backup path %d->%d has %d hops, want 2", src, dst, len(hops))
				}
				if mid := hops[0].To; mid == badToR {
					t.Fatalf("backup %d->%d relays via excluded ToR %d", src, dst, badToR)
				}
			}
		}
	}
	if routed == 0 {
		t.Fatal("no backup routes planned at all")
	}
}

// TestUCMPNoBackupReturnsFalse pins the clean-failure contract: with every
// group path unhealthy and every intermediate ToR excluded, PlanRoute must
// report failure rather than panic or emit a bogus route.
func TestUCMPNoBackupReturnsFalse(t *testing.T) {
	f := fabric(t)
	u := NewUCMP(core.BuildPathSet(f, 0.5))
	u.Health = StaticHealth{
		Path: func(p *core.Path) bool { return false },
		Tor:  func(tor int) bool { return false },
	}
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst {
				continue
			}
			p := dataPacket(f, src, dst, 1<<20)
			if hops, ok := u.PlanRoute(p, src, 0, 0, nil); ok {
				t.Fatalf("%d->%d planned %v with all paths and relays excluded", src, dst, hops)
			}
		}
	}
}

// TestHealthyOfEmpty pins the div-by-zero guard: an entry without paths
// must yield -1, not a modulo panic.
func TestHealthyOfEmpty(t *testing.T) {
	if j := healthyOf(core.EntryView{}, 12345, healthCheck{}); j != -1 {
		t.Fatalf("healthyOf(empty entry) = %d, want -1", j)
	}
}

// TestHealthyOfNilOK pins that without a fault view the hash-selected path
// is accepted, and that under one the scan starts there and wraps.
func TestHealthyOfNilOK(t *testing.T) {
	f := fabric(t)
	ps := core.BuildPathSet(f, 0.5)
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			g := ps.View(0, src, dst)
			for i := 0; i < g.NumEntries(); i++ {
				e := g.Entry(i)
				if e.NumPaths < 2 {
					continue
				}
				for hash := uint64(0); hash < 9; hash++ {
					want := int(hash % uint64(e.NumPaths))
					if got := healthyOf(e, hash, healthCheck{}); got != want {
						t.Fatalf("healthyOf(hash=%d) = %d, want %d", hash, got, want)
					}
					// Reject exactly the hash-selected path: the next one wins.
					var scratch core.Path
					bad := e.Path(want).Hop(0)
					chk := healthCheck{path: &scratch, h: StaticHealth{Path: func(p *core.Path) bool {
						return p.Hops[0] != bad
					}}}
					if got := healthyOf(e, hash, chk); got == want {
						t.Fatalf("healthyOf(hash=%d) kept the rejected path %d", hash, want)
					}
				}
				return
			}
		}
	}
	t.Fatal("no entry with parallel paths found")
}
