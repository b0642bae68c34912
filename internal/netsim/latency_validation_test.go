package netsim_test

import (
	"math/rand"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// On an otherwise idle fabric, a single packet must be delivered within
// the slice the offline calculation planned: the observed end slice equals
// the path's Eqn. 1 end slice (no queueing, no misses). This ties the
// offline DP to the packet-level machinery end to end.
func TestObservedLatencyMatchesPlanned(t *testing.T) {
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ps := core.BuildPathSet(f, 0.5)
	u := routing.NewUCMP(ps)

	for _, bucket := range []int{0, u.Ager.NumBuckets() - 1} {
		for _, pair := range [][2]int{{0, 5}, {3, 12}, {7, 1}, {9, 14}} {
			srcToR, dstToR := pair[0], pair[1]
			eng := sim.NewEngine()
			net := netsim.New(eng, f, u, transport.QueueSpec(transport.DCTCP), transport.QueueSpec(transport.DCTCP), netsim.RotorConfig{})
			net.Start()

			fl := netsim.NewFlow(1, srcToR*f.HostsPerToR, dstToR*f.HostsPerToR, 1436, 0)
			net.RegisterFlow(fl)
			var deliveredAt sim.Time = -1
			fl.ReceiverEP = epFunc(func(p *netsim.Packet) { deliveredAt = eng.Now() })
			fl.SenderEP = epFunc(func(*netsim.Packet) {})

			// Plan what the group says, then send one packet with that
			// bucket at the very start of slice 0.
			g := ps.View(0, srcToR, dstToR)
			e := g.Entry(u.Ager.EntryIndex(g, bucket))
			want := &core.Path{}
			e.Path(int(fl.Hash % uint64(e.NumPaths))).Fill(want)
			pkt := &netsim.Packet{Flow: fl, Type: netsim.Data, PayloadLen: 1436, WireLen: 1500, Bucket: bucket}
			eng.At(0, func() { net.Hosts[fl.SrcHost].Send(pkt) })
			eng.Run(f.CycleDuration() * 3)

			if deliveredAt < 0 {
				t.Fatalf("pair %v bucket %d: packet not delivered", pair, bucket)
			}
			gotSlice := f.AbsSlice(deliveredAt)
			// The final hop happens in the planned end slice; host delivery
			// adds only sub-slice serialization.
			if gotSlice != want.EndSlice() {
				t.Errorf("pair %v bucket %d: delivered in slice %d, planned end slice %d (path %v)",
					pair, bucket, gotSlice, want.EndSlice(), want)
			}
			if pkt.TorHops != want.HopCount() {
				t.Errorf("pair %v bucket %d: traversed %d hops, planned %d",
					pair, bucket, pkt.TorHops, want.HopCount())
			}
		}
	}
}

type epFunc func(*netsim.Packet)

func (f epFunc) Deliver(p *netsim.Packet) { f(p) }

// Randomized cross-validation: over random small fabrics, every routing
// scheme delivers a random flow set completely and conserves bytes.
func TestRandomFabricsAllSchemesDeliver(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		n := 6 + 2*rng.Intn(4) // 6..12 even
		d := 2 + rng.Intn(2)   // 2..3
		if d > n-1 {
			d = n - 1
		}
		cfg := topo.Scaled()
		cfg.NumToRs, cfg.Uplinks = n, d

		type mk struct {
			name  string
			sched string
			build func(f *topo.Fabric) netsim.Router
			tk    transport.Kind
		}
		makers := []mk{
			{"ucmp", "round-robin", func(f *topo.Fabric) netsim.Router { return routing.NewUCMP(core.BuildPathSet(f, 0.5)) }, transport.DCTCP},
			{"vlb", "round-robin", func(f *topo.Fabric) netsim.Router { return routing.NewVLB(f) }, transport.DCTCP},
			{"ksp", "round-robin", func(f *topo.Fabric) netsim.Router { return routing.NewKSP(f, 2) }, transport.NDP},
			{"opera", "opera", func(f *topo.Fabric) netsim.Router { return routing.NewOpera(f, 1) }, transport.NDP},
		}
		for _, m := range makers {
			f := topo.MustFabric(cfg, m.sched, int64(trial))
			eng := sim.NewEngine()
			router := m.build(f)
			net := netsim.New(eng, f, router, transport.QueueSpec(m.tk), transport.QueueSpec(m.tk), netsim.DefaultRotor())
			if uu, ok := router.(*routing.UCMP); ok {
				net.Stamper = uu.StampBucket
			}
			net.Start()
			stack := transport.NewStack(net, m.tk)
			var flows []*netsim.Flow
			hosts := cfg.NumHosts()
			for i := 0; i < 6; i++ {
				src := rng.Intn(hosts)
				dst := (src + 1 + rng.Intn(hosts-1)) % hosts
				size := int64(1000 + rng.Intn(200_000))
				fl := netsim.NewFlow(int64(i+1), src, dst, size, sim.Time(rng.Intn(100))*sim.Microsecond)
				flows = append(flows, fl)
				stack.Launch(fl)
			}
			eng.Run(400 * sim.Millisecond)
			for _, fl := range flows {
				if !fl.Finished {
					t.Errorf("trial %d %s (N=%d d=%d): flow %d unfinished (%d/%d)",
						trial, m.name, n, d, fl.ID, fl.BytesDelivered, fl.Size)
				}
			}
			c := net.Counters
			if c.DataBytesDelivered > c.DataBytesSent {
				t.Errorf("trial %d %s: delivered %d > sent %d", trial, m.name, c.DataBytesDelivered, c.DataBytesSent)
			}
		}
	}
}
