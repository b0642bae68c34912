package netsim

import "fmt"

// PoisonPackets enables the pool's use-after-release debugging: released
// packets have their fields overwritten with loud sentinel values, double
// releases panic, and the fabric entry points assert that a packet handed
// to them has not been recycled. It is a package-level switch (not
// per-Network) so tests can flip it without threading configuration through
// every constructor; it must not be toggled while simulations run.
var PoisonPackets = false

// Poison sentinels: any arithmetic or indexing on a recycled packet goes
// loudly wrong instead of silently reading stale-but-plausible data.
const (
	poisonSeq  = int64(-0x6b6b6b6b6b6b6b6b)
	poisonHost = -0x6b6b6b6b
)

// packetPool is a per-domain free list of Packet structs. A domain is
// single-threaded (one discrete-event engine), so the pool needs no locking
// even when domains run on parallel workers — each domain owns its pool,
// and a packet crossing domains is handed over at a barrier and recycled by
// the receiving domain. Recycled packets keep the capacity of their Route
// slice, so steady-state route planning appends into storage that has
// already grown to the fabric's hop-count high-water mark.
type packetPool struct {
	free []*Packet
	gets uint64
	puts uint64
	made uint64 // Packets allocated because the free list was empty
}

// get returns a reset packet, recycling a released one when available.
// Callers fill in the fields they need; everything else is zero.
func (pool *packetPool) get() *Packet {
	pool.gets++
	if len(pool.free) == 0 {
		pool.made++
		return &Packet{}
	}
	p := pool.free[len(pool.free)-1]
	pool.free = pool.free[:len(pool.free)-1]
	route := p.Route[:0]
	*p = Packet{Route: route}
	return p
}

// put returns a terminal packet (delivered or dropped) to the pool. The
// caller must not touch the packet afterwards; with PoisonPackets set,
// doing so trips an assertion or reads sentinel garbage.
func (pool *packetPool) put(p *Packet) {
	if PoisonPackets {
		if p.released {
			panic(fmt.Sprintf("netsim: double release of packet (seq=%d)", p.Seq))
		}
		p.Flow = nil
		p.Seq = poisonSeq
		p.PayloadLen = -1
		p.WireLen = -1
		p.SrcHost, p.DstHost = poisonHost, poisonHost
		p.SrcToR, p.DstToR = poisonHost, poisonHost
		p.RouteIdx = 1 << 30
		for i := range p.Route {
			p.Route[i] = PlannedHop{To: poisonHost, AbsSlice: -1}
		}
	}
	p.released = true
	pool.puts++
	pool.free = append(pool.free, p)
}

// NewPacket allocates from the first domain's pool. In serial mode that is
// the network's only pool; sharded transports allocate through
// Host.NewPacket instead, so each sender draws from its own domain.
func (n *Network) NewPacket() *Packet { return n.doms[0].newPacket() }

// Release recycles through the first domain's pool (serial-mode
// counterpart of NewPacket).
func (n *Network) Release(p *Packet) { n.doms[0].release(p) }

// assertLive panics when a recycled packet re-enters the fabric (only with
// PoisonPackets set; the check is a single predictable branch otherwise).
func (p *Packet) assertLive(where string) {
	if PoisonPackets && p.released {
		panic("netsim: use of released packet in " + where)
	}
}

// PoolStats reports pool traffic summed across domains: packets handed out,
// packets returned, the difference — packets that exist right now — and the
// packets parked in RotorLB VOQs, which runs of records stand for and no
// Packet holds (a push releases the packet, a select takes a fresh one).
// Tests use it for leak detection: live + parked is what is queued in the
// fabric or in flight inside scheduled events, and both are zero at
// quiescence.
func (n *Network) PoolStats() (gets, puts, live, parked uint64) {
	for _, d := range n.doms {
		gets += d.pool.gets
		puts += d.pool.puts
		parked += d.voqs.parked
	}
	return gets, puts, gets - puts, parked
}

// MemStats is what a run's packet-path memory was made of, summed across
// domains (so on a sharded run the peaks are the domains' own peaks added up:
// what the pools came to hold, not an instant of the run).
type MemStats struct {
	PeakPackets  uint64 // Packets the pools allocated — the most ever live at once — and hold to the end
	PeakParked   uint64 // most packets ever parked in RotorLB VOQs, however few records held them
	VOQChunks    uint64 // VOQ chunks allocated, at unsafe.Sizeof(voqChunk{}) bytes each
	PeakCalSlots uint64 // most calendar queues ever holding a packet at once
	CalQueues    uint64 // calendar queues allocated, of the N·d·S the schedule names
}

// MemStats reports the packet-path high-water marks.
func (n *Network) MemStats() MemStats {
	var m MemStats
	for _, d := range n.doms {
		m.PeakPackets += d.pool.made
		m.PeakParked += d.voqs.peak
		m.VOQChunks += d.voqs.chunks
		m.PeakCalSlots += d.cals.peak
		m.CalQueues += d.cals.made
	}
	return m
}
