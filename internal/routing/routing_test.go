package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/topo"
)

func fabric(t testing.TB) *topo.Fabric {
	t.Helper()
	return topo.MustFabric(topo.Scaled(), "round-robin", 1)
}

func dataPacket(f *topo.Fabric, srcToR, dstToR int, size int64) *netsim.Packet {
	fl := netsim.NewFlow(1, srcToR*f.HostsPerToR, dstToR*f.HostsPerToR, size, 0)
	return &netsim.Packet{
		Flow: fl, Type: netsim.Data, PayloadLen: 1436, WireLen: 1500,
		SrcToR: srcToR, DstToR: dstToR,
	}
}

// validRoute checks a planned route is schedulable: every hop's circuit
// exists in its planned slice, slices don't go backwards, and the route
// ends at the destination.
func validRoute(t *testing.T, f *topo.Fabric, srcToR, dstToR int, fromAbs int64, hops []netsim.PlannedHop) {
	t.Helper()
	if len(hops) == 0 {
		t.Fatal("empty route")
	}
	cur := srcToR
	prev := fromAbs
	for i, h := range hops {
		if h.AbsSlice < prev {
			t.Fatalf("hop %d slice %d before %d", i, h.AbsSlice, prev)
		}
		c := f.CyclicSlice(h.AbsSlice)
		if f.Sched.SwitchFor(c, cur, h.To) < 0 {
			t.Fatalf("hop %d: no circuit %d->%d in slice %d", i, cur, h.To, c)
		}
		cur = h.To
		prev = h.AbsSlice
	}
	if cur != dstToR {
		t.Fatalf("route ends at %d, want %d", cur, dstToR)
	}
}

func TestUCMPPlansValidRoutes(t *testing.T) {
	f := fabric(t)
	u := NewUCMP(core.BuildPathSet(f, 0.5))
	prop := func(rs, rd uint8, rf uint16, bucket uint8) bool {
		src, dst := int(rs)%f.NumToRs, int(rd)%f.NumToRs
		if src == dst {
			return true
		}
		fromAbs := int64(rf % 100)
		p := dataPacket(f, src, dst, 1<<20)
		p.Bucket = int(bucket) % u.Ager.NumBuckets()
		hops, ok := u.PlanRoute(p, src, 0, fromAbs, nil)
		if !ok {
			return false
		}
		validRoute(t, f, src, dst, fromAbs, hops)
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUCMPBucketControlsHops(t *testing.T) {
	f := fabric(t)
	u := NewUCMP(core.BuildPathSet(f, 0.5))
	// Find a pair where the group has multiple hop counts.
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst {
				continue
			}
			g := u.PS.Group(0, src, dst)
			if len(g.Entries) < 2 {
				continue
			}
			pNew := dataPacket(f, src, dst, 0)
			pNew.Bucket = 0
			newHops, _ := u.PlanRoute(pNew, src, 0, 0, nil)
			pOld := dataPacket(f, src, dst, 0)
			pOld.Bucket = u.Ager.NumBuckets() - 1
			oldHops, _ := u.PlanRoute(pOld, src, 0, 0, nil)
			if len(newHops) < len(oldHops) {
				t.Fatalf("bucket 0 (new flow) got %d hops < aged bucket's %d", len(newHops), len(oldHops))
			}
			return
		}
	}
	t.Fatal("no multi-entry group found")
}

func TestUCMPSameName(t *testing.T) {
	f := fabric(t)
	u := NewUCMP(core.BuildPathSet(f, 0.5))
	if u.Name() != "ucmp" {
		t.Fatal("name")
	}
	if u.RotorFlow(netsim.NewFlow(1, 0, 17, 1<<30, 0)) {
		t.Fatal("rotor without relax")
	}
}

func TestUCMPFailureFallback(t *testing.T) {
	f := fabric(t)
	ps := core.BuildPathSet(f, 0.5)
	u := NewUCMP(ps)
	sc := failure.NewScenario(f)
	// Fail a specific intermediate-heavy ToR.
	sc.FailToRs(0.2, rand.New(rand.NewSource(3)))
	u.Health = StaticHealth{Path: sc.PathOK, Tor: sc.TorOK}
	healthy := 0
	for src := 0; src < f.NumToRs; src++ {
		if !sc.TorOK(src) {
			continue
		}
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst || !sc.TorOK(dst) {
				continue
			}
			p := dataPacket(f, src, dst, 1<<20)
			hops, ok := u.PlanRoute(p, src, 0, 0, nil)
			if !ok {
				continue // allowed: unrecoverable pairs exist at high failure rates
			}
			healthy++
			// The plan must avoid failed intermediate ToRs.
			for _, h := range hops[:len(hops)-1] {
				if !sc.TorOK(h.To) {
					t.Fatalf("route %v uses failed ToR %d", hops, h.To)
				}
			}
		}
	}
	if healthy == 0 {
		t.Fatal("no healthy routes found at all")
	}
}

func TestVLBRoutes(t *testing.T) {
	f := fabric(t)
	v := NewVLB(f)
	if !v.RotorFlow(netsim.NewFlow(9, 0, 17, 100, 0)) {
		t.Fatal("VLB data must be rotor-class")
	}
	direct, twoHop := 0, 0
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst {
				continue
			}
			for abs := int64(0); abs < int64(f.Sched.S); abs++ {
				p := dataPacket(f, src, dst, 1000)
				hops, ok := v.PlanRoute(p, src, 0, abs, nil)
				if !ok {
					t.Fatalf("VLB failed to plan %d->%d", src, dst)
				}
				validRoute(t, f, src, dst, abs, hops)
				switch len(hops) {
				case 1:
					direct++
				case 2:
					twoHop++
				default:
					t.Fatalf("VLB planned %d hops", len(hops))
				}
			}
		}
	}
	if direct == 0 || twoHop == 0 {
		t.Fatalf("VLB path mix degenerate: direct=%d twoHop=%d", direct, twoHop)
	}
}

func TestVLBPhase1Immediate(t *testing.T) {
	f := fabric(t)
	v := NewVLB(f)
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst {
				continue
			}
			p := dataPacket(f, src, dst, 1000)
			hops, _ := v.PlanRoute(p, src, 0, 7, nil)
			// Phase 1 forwards immediately: the first hop is in the
			// starting slice.
			if hops[0].AbsSlice != 7 {
				t.Fatalf("VLB phase 1 not immediate: %v", hops)
			}
		}
	}
}

func TestKSPRoutesAndDiversity(t *testing.T) {
	f := fabric(t)
	k5 := NewKSP(f, 5)
	if k5.Name() != "ksp-k" || NewKSP(f, 1).Name() != "ksp-1" {
		t.Fatal("names")
	}
	if k5.RotorFlow(netsim.NewFlow(1, 0, 17, 1<<30, 0)) {
		t.Fatal("KSP never rotor")
	}
	for src := 0; src < 4; src++ {
		for dst := 8; dst < 12; dst++ {
			if k5.PS.View(0, src, dst).NumPaths() == 0 {
				t.Fatalf("no KSP paths %d->%d", src, dst)
			}
			p := dataPacket(f, src, dst, 1000)
			hops, ok := k5.PlanRoute(p, src, 0, 0, nil)
			if !ok {
				t.Fatal("KSP plan failed")
			}
			validRoute(t, f, src, dst, 0, hops)
			// All hops planned in the starting slice (continuous path).
			for _, h := range hops {
				if h.AbsSlice != 0 {
					t.Fatalf("KSP hop outside starting slice: %v", hops)
				}
			}
		}
	}
}

func TestOperaRoutesOnStableGraph(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "opera", 1)
	o := NewOpera(f, 1)
	if o.Name() != "opera-1" || NewOpera(f, 5).Name() != "opera-k" {
		t.Fatal("names")
	}
	if !o.RotorFlow(netsim.NewFlow(1, 0, 17, FlowCutoff15MB, 0)) {
		t.Fatal(">=15MB must be rotor-class")
	}
	if o.RotorFlow(netsim.NewFlow(2, 0, 17, FlowCutoff15MB-1, 0)) {
		t.Fatal("<15MB must not be rotor-class")
	}
	for src := 0; src < f.NumToRs; src++ {
		for dst := 0; dst < f.NumToRs; dst++ {
			if src == dst {
				continue
			}
			p := dataPacket(f, src, dst, 1000)
			hops, ok := o.PlanRoute(p, src, 0, 3, nil)
			if !ok {
				continue // stable subgraph may disconnect a pair transiently
			}
			// Every hop must use a circuit that is NOT about to reconfigure
			// at the next boundary (the Opera invariant).
			abs := hops[0].AbsSlice
			c := f.CyclicSlice(abs)
			next := f.CyclicSlice(abs + 1)
			cur := src
			for _, h := range hops {
				sw := f.Sched.SwitchFor(c, cur, h.To)
				if sw < 0 {
					t.Fatalf("opera hop %d->%d missing circuit in slice %d", cur, h.To, c)
				}
				if f.Sched.ReconfiguresAt(next, sw) {
					// The chosen switch reconfigures at the next boundary:
					// only acceptable if another stable switch also realizes
					// this pair in slice c.
					stable := false
					for sw2 := 0; sw2 < f.Sched.D; sw2++ {
						if sw2 != sw && f.Sched.PeerOf(c, cur, sw2) == h.To && !f.Sched.ReconfiguresAt(next, sw2) {
							stable = true
							break
						}
					}
					if !stable {
						t.Fatalf("opera hop %d->%d rides a reconfiguring circuit", cur, h.To)
					}
				}
				cur = h.To
			}
		}
	}
}

func TestHopsFromPathOffsets(t *testing.T) {
	p := &core.Path{Src: 0, Dst: 5, StartSlice: 2, Hops: []core.Hop{{To: 3, Slice: 2}, {To: 5, Slice: 4}}}
	hops := hopsFromPath(p, 12, nil) // fromAbs 12, cyclic start 2 -> offset 10
	if hops[0].AbsSlice != 12 || hops[1].AbsSlice != 14 {
		t.Fatalf("offsets wrong: %v", hops)
	}
	if hops[0].To != 3 || hops[1].To != 5 {
		t.Fatalf("targets wrong: %v", hops)
	}
}
