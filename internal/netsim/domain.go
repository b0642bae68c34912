package netsim

import (
	"math/bits"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// domain groups the execution resources one conservative-PDES lookahead
// domain owns: its engine (timing wheel), its shard of the fabric counters,
// its packet pool, and the ToRs whose events it executes. In a sharded
// network there is one domain per ToR (covering the ToR, its hosts, NICs,
// and uplink ports); the serial network is the one-domain special case —
// every component shares doms[0], whose engine and counters alias
// Network.Eng and Network.Counters, so the serial hot path is exactly the
// pre-sharding code.
type domain struct {
	net  *Network
	eng  *sim.Engine
	id   int
	ctr  *Counters
	pool *packetPool
	voqs voqPool // chunks of the RotorLB VOQs of this domain's ToRs
	cals calPool // calendar queues of this domain's uplink ports
	tors []*ToR

	// finished buffers flows completing in this domain during a sharded
	// run; FinalizeSharded drains them in deterministic order. Serial runs
	// bypass it (OnFlowDone fires inline).
	finished []*Flow

	// boundaryFn is the slice-boundary callback bound once per domain.
	boundaryFn func()
}

// newPacket and release are the per-domain pool entry points; components
// allocate and recycle through their own domain so the packet path stays
// lock-free under parallel execution.
func (d *domain) newPacket() *Packet { return d.pool.get() }
func (d *domain) release(p *Packet)  { d.pool.put(p) }
func (d *domain) now() sim.Time      { return d.eng.Now() }

// dropPacket records a terminal drop in the domain's counter shard and
// recycles the packet. Every path that abandons a packet must come through
// here (or through a delivery); otherwise the pool leaks and the
// conservation test fails.
func (d *domain) dropPacket(p *Packet) {
	d.ctr.DroppedPackets++
	if p.Type == Data {
		d.ctr.DataDropped++
	}
	d.release(p)
}

// ShardLookahead returns the fabric's conservative-PDES lookahead: a lower
// bound on the latency of every cross-ToR event. An uplink transmission
// arrives at the peer at now + serialization + PropDelay, and serialization
// is at least the bare-header uplink serialization delay — so every
// cross-domain send lands at least this far in the future, which is the
// window width the sharded engine may safely run domains in parallel for.
func ShardLookahead(f *topo.Fabric) sim.Time {
	return f.PropDelay + f.UplinkSerialization(HeaderBytes)
}

// add folds another counter shard into c. Int64 sums are order-independent,
// so a sharded run's merged counters are bit-identical to the serial run's.
func (c *Counters) add(o *Counters) {
	c.DataBytesSent += o.DataBytesSent
	c.DataBytesDelivered += o.DataBytesDelivered
	c.TorToTorBytes += o.TorToTorBytes
	c.HostToTorBytes += o.HostToTorBytes
	c.TorToHostBytes += o.TorToHostBytes
	c.DataPackets += o.DataPackets
	c.ReroutedPackets += o.ReroutedPackets
	c.DroppedPackets += o.DroppedPackets
	c.RotorDrops += o.RotorDrops
	c.DataInjected += o.DataInjected
	c.DataDelivered += o.DataDelivered
	c.TrimmedDelivered += o.TrimmedDelivered
	c.DataDropped += o.DataDropped
	c.ExpiredInCalendar += o.ExpiredInCalendar
	c.LateArrivals += o.LateArrivals
	c.CalendarFull += o.CalendarFull
	c.RecoveredSameLength += o.RecoveredSameLength
	c.RecoveredShorter += o.RecoveredShorter
	c.RecoveredLonger += o.RecoveredLonger
	c.RecoveredBackup += o.RecoveredBackup
	c.RecoveryFailed += o.RecoveryFailed
	c.FaultDrops += o.FaultDrops
	c.CongestionSteered += o.CongestionSteered
	for i := range c.RerouteWait {
		c.RerouteWait[i] += o.RerouteWait[i]
	}
}

// rerouteWaitBucket maps a time-to-reroute wait onto its log₂-microsecond
// histogram bucket: 0 for sub-microsecond, i for [2^(i-1), 2^i) µs, the
// last bucket open-ended.
func rerouteWaitBucket(w sim.Time) int {
	if w < 0 {
		w = 0
	}
	b := bits.Len64(uint64(w / sim.Microsecond))
	if b >= RerouteWaitBuckets {
		b = RerouteWaitBuckets - 1
	}
	return b
}
