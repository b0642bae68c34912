package netsim

import (
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

func poolNet(t *testing.T) *Network {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	return New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{}, QueueSpec{}, RotorConfig{})
}

// A released packet must come back from the pool fully reset, with its Route
// slice's capacity retained for the next route plan.
func TestPacketPoolRecyclesRouteStorage(t *testing.T) {
	n := poolNet(t)
	p := n.NewPacket()
	p.Seq = 42
	p.TorHops = 3
	p.Route = append(p.Route, PlannedHop{To: 1, AbsSlice: 2}, PlannedHop{To: 5, AbsSlice: 3})
	routeCap := cap(p.Route)
	n.Release(p)

	q := n.NewPacket()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.Seq != 0 || q.TorHops != 0 || len(q.Route) != 0 {
		t.Fatalf("recycled packet not reset: seq=%d hops=%d route=%v", q.Seq, q.TorHops, q.Route)
	}
	if cap(q.Route) != routeCap {
		t.Fatalf("route capacity lost on recycle: %d, want %d", cap(q.Route), routeCap)
	}
	gets, puts, live, parked := n.PoolStats()
	if gets != 2 || puts != 1 || live != 1 || parked != 0 {
		t.Fatalf("pool stats gets=%d puts=%d live=%d parked=%d", gets, puts, live, parked)
	}
}

func TestPoisonDoubleReleasePanics(t *testing.T) {
	PoisonPackets = true
	defer func() { PoisonPackets = false }()
	n := poolNet(t)
	p := n.NewPacket()
	n.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic under poison mode")
		}
	}()
	n.Release(p)
}

func TestPoisonCatchesUseAfterRelease(t *testing.T) {
	PoisonPackets = true
	defer func() { PoisonPackets = false }()
	n := poolNet(t)
	fl := NewFlow(1, 0, 17, 1000, 0)
	n.RegisterFlow(fl)
	p := n.NewPacket()
	p.Flow = fl
	p.Type = Data
	p.PayloadLen = 100
	p.WireLen = 164
	n.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("sending a released packet did not panic under poison mode")
		}
	}()
	n.Hosts[0].Send(p)
}

// Poison mode must also scribble over the recycled route storage so stale
// reads are loud.
func TestPoisonScrubsFields(t *testing.T) {
	PoisonPackets = true
	defer func() { PoisonPackets = false }()
	n := poolNet(t)
	p := n.NewPacket()
	p.Seq = 7
	p.Route = append(p.Route, PlannedHop{To: 3, AbsSlice: 9})
	route := p.Route
	n.Release(p)
	if p.Seq == 7 {
		t.Fatal("Seq not poisoned")
	}
	if route[0].To == 3 && route[0].AbsSlice == 9 {
		t.Fatal("route contents not poisoned")
	}
}
