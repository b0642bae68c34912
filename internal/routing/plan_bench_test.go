package routing

import (
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/topo"
)

// planBenchFabric builds the path set of an (n, d) round-robin fabric at the
// paper's link parameters: rotation-symmetric for power-of-two n, the
// brute-force build otherwise.
func planBenchFabric(tb testing.TB, n, d int) (*topo.Fabric, *UCMP) {
	tb.Helper()
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = n, d, 2
	f, err := topo.NewFabric(cfg, "round-robin", 1)
	if err != nil {
		tb.Fatal(err)
	}
	return f, NewUCMP(core.BuildPathSet(f, 0.5))
}

// planBenchPackets walks ToR pairs and buckets the way the repository
// benchmark's plan microbenchmark does.
func planBenchPackets(f *topo.Fabric, buckets int) []*netsim.Packet {
	pkts := make([]*netsim.Packet, 1024)
	for i := range pkts {
		src := i % f.NumToRs
		dst := (src + 1 + (i*31)%(f.NumToRs-1)) % f.NumToRs
		fl := netsim.NewFlow(int64(i), src*f.HostsPerToR, dst*f.HostsPerToR, 1<<20, 0)
		pkts[i] = &netsim.Packet{
			Flow: fl, Type: netsim.Data, PayloadLen: 1436, WireLen: 1500,
			SrcToR: src, DstToR: dst, SrcHost: fl.SrcHost, DstHost: fl.DstHost,
			Bucket: i % buckets,
		}
	}
	return pkts
}

func benchPlan(b *testing.B, n, d int) {
	f, u := planBenchFabric(b, n, d)
	pkts := planBenchPackets(f, u.Ager.NumBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		abs := int64(i % (4 * f.Sched.S))
		p.Route, _ = u.PlanRoute(p, p.SrcToR, f.SliceStart(abs), abs, p.Route[:0])
	}
}

func BenchmarkPlanRouteBrute108(b *testing.B)     { benchPlan(b, 108, 6) }
func BenchmarkPlanRouteSymmetric512(b *testing.B) { benchPlan(b, 512, 8) }
