package netsim

import (
	"fmt"
	"sort"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// QueueSpec configures the queues instantiated at ToR ports.
type QueueSpec struct {
	MaxDataPackets int
	ECNThreshold   int
	Trim           bool
}

// DCTCPQueues is the paper's DCTCP switch configuration (§7.1): 300
// MTU-sized packets, ECN threshold 65.
func DCTCPQueues() QueueSpec { return QueueSpec{MaxDataPackets: 300, ECNThreshold: 65} }

// NDPQueues is the paper's NDP switch configuration (§7.1): 80 MTU-sized
// packets with trimming.
func NDPQueues() QueueSpec { return QueueSpec{MaxDataPackets: 80, Trim: true} }

// RotorConfig tunes the RotorLB hop-by-hop machinery.
type RotorConfig struct {
	Enabled bool
	// LocalCapBytes backpressures hosts: a host may push into its ToR's
	// local VOQ for a destination only below this bound.
	LocalCapBytes int64
	// NonlocalCapBytes bounds indirect traffic parked at an intermediate
	// ToR; senders stop indirecting toward a ToR above it (standing in for
	// RotorLB's offer/accept exchange).
	NonlocalCapBytes int64
}

// DefaultRotor returns a workable RotorLB configuration.
func DefaultRotor() RotorConfig {
	return RotorConfig{Enabled: true, LocalCapBytes: 256 * 1500, NonlocalCapBytes: 1024 * 1500}
}

// Counters aggregates fabric-wide statistics.
type Counters struct {
	DataBytesSent      int64 // payload bytes leaving hosts (incl. rtx)
	DataBytesDelivered int64 // distinct payload bytes reaching receivers
	TorToTorBytes      int64 // wire bytes summed over every ToR-ToR hop
	HostToTorBytes     int64
	TorToHostBytes     int64
	DataPackets        int64
	ReroutedPackets    int64 // packets recirculated at least once (§6.3)
	DroppedPackets     int64
	RotorDrops         int64

	// Packet-conservation ledger (data packets only, counted per
	// transmission): everything injected at a host NIC must end exactly
	// once as delivered in full, delivered as a trimmed header (which the
	// transport retransmits), or dropped; anything else is still parked in
	// a queue. The invariant test in conservation_test.go checks
	//   DataInjected == DataDelivered + TrimmedDelivered + DataDropped
	//                   + InFlightData()
	// at quiescence, which would catch packets leaked (or duplicated) by
	// the pool.
	DataInjected     int64
	DataDelivered    int64
	TrimmedDelivered int64
	DataDropped      int64

	// Recirculation cause breakdown (§6.3 diagnostics).
	ExpiredInCalendar int64 // parked past the slice boundary
	LateArrivals      int64 // reached a ToR after the planned slice
	CalendarFull      int64 // target priority queue rejected the packet

	// Online §5.3 recovery breakdown (data packets only, counted per route
	// plan while a fault view is installed): plans that left the wanted
	// path for a healthy alternative, by the class of the path taken.
	// RecoveryFailed counts plans with no healthy alternative at all (the
	// packet is dropped); FaultDrops counts packets of any type dropped
	// because they arrived at — or were parked in — a dead ToR.
	RecoveredSameLength int64
	RecoveredShorter    int64
	RecoveredLonger     int64
	RecoveredBackup     int64
	RecoveryFailed      int64
	FaultDrops          int64

	// RerouteWait is the time-to-reroute histogram: the delay between a
	// data packet hitting a dead element (calendar expiry on a failed link
	// or ToR) and its replacement circuit opening. Bucket 0 counts
	// sub-microsecond waits, bucket i waits in [2^(i-1), 2^i) µs, and the
	// last bucket is open-ended (≥ ~16 ms).
	RerouteWait [RerouteWaitBuckets]int64
}

// RerouteWaitBuckets is the bucket count of Counters.RerouteWait.
const RerouteWaitBuckets = 15

// FaultState is the time-indexed health view the fabric consults when
// installed on Network.Faults. Implementations must be pure functions of
// their arguments (no mutable state): lookahead domains query them
// concurrently, and determinism requires identical answers at identical
// local times in serial and sharded runs. failure.Schedule (a compiled
// failure.Timeline) is the canonical implementation.
type FaultState interface {
	// TorOK reports whether a ToR is up at `now`. Packets arriving at — or
	// parked in — a down ToR are dropped and counted in FaultDrops.
	TorOK(now sim.Time, tor int) bool
	// LinkOK reports whether the (tor, switch) cable and the switch itself
	// are up at `now`. A down link never transmits: packets planned over
	// it expire at the slice boundary and recirculate (§6.3), which is
	// where online recovery replans them.
	LinkOK(now sim.Time, tor, sw int) bool
}

// Network is a simulated RDCN instance: hosts, ToRs, the circuit schedule
// gating the uplinks, a Router, and transport endpoints hanging off flows.
//
// A network runs in one of two modes. Serial (New): one engine, one
// domain, the classic single-threaded event loop. Sharded (NewSharded):
// one lookahead domain per ToR on a sim.ShardedEngine; Eng is nil, and
// cross-ToR packet arrivals route through the engine's mailboxes. Rotor-
// class flows (VLB/RotorLB) read peer state only through the slice-boundary
// board (board.go), so they shard when slices are at least one lookahead
// long.
type Network struct {
	Eng    *sim.Engine // serial engine; nil when sharded
	F      *topo.Fabric
	Router Router

	UpQueue   QueueSpec
	DownQueue QueueSpec
	Rotor     RotorConfig

	Hosts []*Host
	ToRs  []*ToR

	Counters Counters

	// OnFlowDone, if set, fires when a flow completes.
	OnFlowDone func(f *Flow)

	// Stamper, if set, tags packets as they leave a host (UCMP's host-side
	// DSCP bucket stamping, §6.1).
	Stamper func(p *Packet)

	// Faults, if set, injects runtime failures (Fig 12): down links never
	// transmit, down ToRs drop traffic, and repairs take effect at the
	// next slice boundary. Must be set before Start and never mutated
	// afterwards; nil costs one predictable branch per health check.
	Faults FaultState

	// flows maps the sparse flow ID to the flow (duplicate detection and
	// ID-based lookup); flowList holds the same flows in registration
	// order, with each flow's dense index being its position here.
	flows    map[int64]*Flow
	flowList []*Flow

	pool packetPool

	// sharded is set by NewSharded; doms holds the execution domains (a
	// single shared one in serial mode).
	sharded *sim.ShardedEngine
	doms    []*domain

	// rotorBoard carries each ToR's nonlocal VOQ bytes, on when the rotor
	// is enabled (board.go).
	rotorBoard board

	// Memoized serialization delays for the two wire lengths that cover
	// nearly all traffic (full MTU frames and bare control headers), so the
	// per-packet hot path skips the 64-bit division in SerializationDelay.
	serMTU, serHdr     sim.Time
	serUpMTU, serUpHdr sim.Time

	// restoredWaiters buffers the RotorLB credit callbacks decoded from a
	// checkpoint until the transport re-parks them (checkpoint.go).
	restoredWaiters []RestoredRotorWaiter
	// snapDescs is Snapshot's event-descriptor buffer, kept between
	// checkpoints and cleared after each use so it pins no packet.
	snapDescs []sim.EventDesc
	// snapReserved is Snapshot's buffer of the ports' reservations.
	snapReserved []sim.ReservedDesc
}

// New wires up a serial network. Call Start before Run to arm the slice
// clock.
func New(eng *sim.Engine, f *topo.Fabric, router Router, up, down QueueSpec, rotor RotorConfig) *Network {
	n := newNetworkShell(nil, f, router, up, down, rotor)
	n.Eng = eng
	// One domain shared by every component, aliasing the network-level
	// engine, counters, and pool: serial behavior is byte-identical to the
	// pre-domain code, including the single slice-boundary event iterating
	// all ToRs.
	d := &domain{net: n, eng: eng, id: 0, ctr: &n.Counters, pool: &n.pool}
	d.boundaryFn = func() { n.sliceBoundaryFor(d) }
	n.doms = []*domain{d}
	n.buildTopology(func(int) *domain { return d })
	d.tors = n.ToRs
	return n
}

// NewSharded wires up a network over a sharded engine: one domain per ToR,
// owning the ToR, its hosts, their NICs, and its uplink ports. The engine
// must have exactly NumToRs domains and a window no larger than
// ShardLookahead(f); a network that carries the rotor's slice-boundary board
// also needs slices at least one window long (board.go). Cross-ToR packet
// arrivals are routed through the engine's mailboxes; everything else stays
// domain-local. Run the engine, then call FinalizeSharded before reading
// Counters or flow completions.
func NewSharded(sh *sim.ShardedEngine, f *topo.Fabric, router Router, up, down QueueSpec, rotor RotorConfig) *Network {
	if sh.Domains() != f.NumToRs {
		panic(fmt.Sprintf("netsim: sharded engine has %d domains, fabric has %d ToRs", sh.Domains(), f.NumToRs))
	}
	if la := ShardLookahead(f); sh.Window() > la {
		panic(fmt.Sprintf("netsim: engine window %v exceeds fabric lookahead %v", sh.Window(), la))
	}
	n := newNetworkShell(sh, f, router, up, down, rotor)
	n.doms = make([]*domain, f.NumToRs)
	for i := range n.doms {
		d := &domain{net: n, eng: sh.Domain(i), id: i, ctr: &Counters{}, pool: &packetPool{}}
		d.boundaryFn = func() { n.sliceBoundaryFor(d) }
		n.doms[i] = d
	}
	n.buildTopology(func(tor int) *domain { return n.doms[tor] })
	for i, d := range n.doms {
		d.tors = n.ToRs[i : i+1]
	}
	return n
}

// newNetworkShell builds the mode-independent part of a Network; sh is nil
// for a serial one.
func newNetworkShell(sh *sim.ShardedEngine, f *topo.Fabric, router Router, up, down QueueSpec, rotor RotorConfig) *Network {
	n := &Network{
		F: f, Router: router, sharded: sh,
		UpQueue: up, DownQueue: down, Rotor: rotor,
		flows: make(map[int64]*Flow),
	}
	n.serMTU = f.SerializationDelay(f.MTU)
	n.serHdr = f.SerializationDelay(HeaderBytes)
	n.serUpMTU = f.UplinkSerialization(f.MTU)
	n.serUpHdr = f.UplinkSerialization(HeaderBytes)
	if rotor.Enabled {
		n.rotorBoard = newBoard(n)
	}
	return n
}

// buildTopology instantiates ToRs and hosts, assigning each to the domain
// domOf returns for its ToR index.
func (n *Network) buildTopology(domOf func(tor int) *domain) {
	n.ToRs = make([]*ToR, n.F.NumToRs)
	for i := range n.ToRs {
		n.ToRs[i] = newToR(n, i, domOf(i))
	}
	n.Hosts = make([]*Host, n.F.NumHosts())
	for i := range n.Hosts {
		n.Hosts[i] = newHost(n, i, domOf(i/n.F.HostsPerToR))
	}
}

// HostToR returns the ToR a host attaches to.
func (n *Network) HostToR(host int) int { return host / n.F.HostsPerToR }

// Start arms the slice-boundary clock. Must be called once before running.
// Sharded networks arm one boundary event per domain (the slice clock is
// global state every ToR derives locally from its own virtual time).
func (n *Network) Start() {
	for _, d := range n.doms {
		d.eng.AtTag(0, sim.EventTag{Kind: checkpoint.KindBoundary, A: int32(d.id)}, d.boundaryFn)
	}
}

// sliceBoundaryFor fires at the start of every slice in one domain: it
// expires the calendar queues of the slice that just ended (rerouting the
// packets that missed their circuits, §6.3) and kicks the domain's uplink
// pumps for the new slice. Serially the single domain covers all ToRs.
func (n *Network) sliceBoundaryFor(d *domain) {
	now := d.eng.Now()
	abs := n.F.AbsSlice(now)
	// The cyclic index of the just-ended slice is computed once here rather
	// than per ToR (it is the same for all of them).
	expired := -1
	if abs > 0 {
		expired = n.F.CyclicSlice(abs - 1)
	}
	for _, tor := range d.tors {
		tor.onSliceStart(abs, expired)
	}
	d.eng.AtTag(n.F.SliceStart(abs+1), sim.EventTag{Kind: checkpoint.KindBoundary, A: int32(d.id)}, d.boundaryFn)
}

// simNow returns the observation clock: the serial engine's time, or the
// sharded coordinator's global time (sampling runs as a global event).
func (n *Network) simNow() sim.Time {
	if n.sharded != nil {
		return n.sharded.GlobalNow()
	}
	return n.Eng.Now()
}

// domainFor returns the domain executing a ToR's events.
func (n *Network) domainFor(tor int) *domain {
	if len(n.doms) == 1 {
		return n.doms[0]
	}
	return n.doms[tor]
}

// FinalizeSharded merges the per-domain counter shards into Counters and
// fires OnFlowDone for every flow that completed during a sharded run,
// ordered by (FinishedAt, flow ID). Completion instants are domain-local
// times, so this is the serial completion order whenever instants are
// distinct (ties fall back to ID order, which a serial run does not
// guarantee — the one documented observable difference, DESIGN.md §10).
// Call it exactly once, after the engine run; serial networks ignore it.
func (n *Network) FinalizeSharded() {
	if n.sharded == nil {
		return
	}
	var fin []*Flow
	for _, d := range n.doms {
		n.Counters.add(d.ctr)
		*d.ctr = Counters{}
		fin = append(fin, d.finished...)
		d.finished = nil
	}
	sort.Slice(fin, func(i, j int) bool {
		if fin[i].FinishedAt != fin[j].FinishedAt {
			return fin[i].FinishedAt < fin[j].FinishedAt
		}
		return fin[i].ID < fin[j].ID
	})
	if n.OnFlowDone != nil {
		for _, f := range fin {
			n.OnFlowDone(f)
		}
	}
}

// RegisterFlow makes the network aware of a flow (needed before any packet
// of it is sent) and assigns it the next dense index, its identity inside
// checkpoint files. Only a registered flow's data is fair-queued in its own
// NIC queue.
func (n *Network) RegisterFlow(f *Flow) {
	if _, dup := n.flows[f.ID]; dup {
		panic(fmt.Sprintf("netsim: duplicate flow %d", f.ID))
	}
	f.RotorClass = n.Router.RotorFlow(f)
	f.dense = len(n.flowList)
	f.srcToR, f.dstToR = n.HostToR(f.SrcHost), n.HostToR(f.DstHost)
	n.flows[f.ID] = f
	n.flowList = append(n.flowList, f)
}

// RecordDelivered credits newly received distinct payload bytes to a flow
// (called by transport receivers) and completes the flow when all bytes
// have arrived.
func (n *Network) RecordDelivered(f *Flow, newBytes int64) {
	if newBytes <= 0 {
		return
	}
	d := n.domainFor(n.HostToR(f.DstHost))
	f.BytesDelivered += newBytes
	d.ctr.DataBytesDelivered += newBytes
	if f.BytesDelivered >= f.Size {
		n.flowFinishedIn(d, f)
	}
}

// FlowFinished records completion exactly once. It runs in the domain of
// the flow's destination ToR (delivery events execute there).
func (n *Network) FlowFinished(f *Flow) {
	n.flowFinishedIn(n.domainFor(n.HostToR(f.DstHost)), f)
}

func (n *Network) flowFinishedIn(d *domain, f *Flow) {
	if f.Finished {
		return
	}
	f.Finished = true
	f.FinishedAt = d.eng.Now()
	if n.sharded != nil {
		// OnFlowDone callbacks append to shared collector state; buffer and
		// drain deterministically in FinalizeSharded.
		d.finished = append(d.finished, f)
		return
	}
	if n.OnFlowDone != nil {
		n.OnFlowDone(f)
	}
}

// Flows returns all registered flows sorted by ID, so result aggregation
// built on it (FCT percentiles, trace export) is deterministic and
// independent of map iteration order.
func (n *Network) Flows() []*Flow {
	out := make([]*Flow, len(n.flowList))
	copy(out, n.flowList)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumFlows returns the number of registered flows (the dense index bound).
func (n *Network) NumFlows() int { return len(n.flowList) }

// InFlightData counts the data packets parked in fabric queues (host NICs —
// segments of a run not built yet included — ToR ports, calendar queues,
// RotorLB VOQs). Packets on the wire — inside a
// scheduled delivery event — are not visible to it, so the count is exact
// only at quiescence (no pending events), which is when the conservation
// test reads it.
func (n *Network) InFlightData() int64 {
	var c int64
	for _, h := range n.Hosts {
		c += int64(h.port.high.dataCount())
		for _, f := range h.port.ring {
			c += int64(h.port.queueFor(f).dataCount())
			if f != nil {
				c += f.run.segments()
			}
		}
	}
	for _, t := range n.ToRs {
		for _, d := range t.down {
			c += int64(d.queue.countData())
			c += int64(d.stage.dataCount())
		}
		for _, u := range t.up {
			for i := range u.cal {
				c += int64(u.cal[i].q.countData())
			}
		}
		if r := t.rotor; r != nil {
			c += int64(r.localPkts + r.nonlocalPkts) // a VOQ record is always data
		}
	}
	return c
}

// serdelay is the serialization delay of a packet on a host-facing link.
func (n *Network) serdelay(wireLen int) sim.Time {
	switch wireLen {
	case n.F.MTU:
		return n.serMTU
	case HeaderBytes:
		return n.serHdr
	}
	return n.F.SerializationDelay(wireLen)
}

// serdelayUp is the serialization delay on a circuit uplink (the §8
// testbed oversubscribes uplinks).
func (n *Network) serdelayUp(wireLen int) sim.Time {
	switch wireLen {
	case n.F.MTU:
		return n.serUpMTU
	case HeaderBytes:
		return n.serUpHdr
	}
	return n.F.UplinkSerialization(wireLen)
}

// Sample is a point-in-time fabric measurement used for Figs 7, 10a, 15, 17.
type Sample struct {
	At sim.Time
	// Utilizations are averages across links of bytes sent since the
	// previous sample divided by link capacity over the interval.
	TorToHostUtil float64
	HostToTorUtil float64
	TorToTorUtil  float64
	// JainQueueIndex is Jain's fairness index over the per-uplink-port
	// queue occupancies (Appendix C, Eqn. 7).
	JainQueueIndex float64
	// JainLoadIndex is the same index over bytes sent per uplink port in
	// the sampling interval — a queue-free load-balance view that is
	// meaningful for RotorLB traffic too (Fig 15).
	JainLoadIndex float64
}

// TakeSample computes utilizations since the previous TakeSample call. On
// a sharded network it must run as a coordinator global event (it reads and
// advances every port's meter).
func (n *Network) TakeSample(prev *Sample) Sample {
	now := n.simNow()
	s := Sample{At: now}
	var interval sim.Time
	if prev != nil {
		interval = now - prev.At
	} else {
		interval = now
	}
	if interval <= 0 {
		return s
	}
	capBytes := float64(n.F.LinkBps) * interval.Seconds() / 8
	upCapBytes := float64(n.F.UplinkRate()) * interval.Seconds() / 8

	var down, up, hostUp float64
	var nDown, nHost int
	var qsum, qsq, lsum, lsq float64
	var m int
	for _, tor := range n.ToRs {
		for _, dp := range tor.down {
			down += float64(dp.takeBytes()) / capBytes
			nDown++
		}
		for _, upPort := range tor.up {
			l := float64(upPort.takeBytes())
			up += l / upCapBytes
			lsum += l
			lsq += l * l
			q := float64(upPort.queuedBytes())
			qsum += q
			qsq += q * q
			m++
		}
	}
	for _, h := range n.Hosts {
		hostUp += float64(h.port.takeBytes()) / capBytes
		nHost++
	}
	if nDown > 0 {
		s.TorToHostUtil = down / float64(nDown)
	}
	if m > 0 {
		s.TorToTorUtil = up / float64(m)
	}
	if nHost > 0 {
		s.HostToTorUtil = hostUp / float64(nHost)
	}
	s.JainQueueIndex = jain(qsum, qsq, m)
	s.JainLoadIndex = jain(lsum, lsq, m)
	return s
}

// JainCumulative computes Jain's fairness index over the cumulative bytes
// each uplink port has sent since the run began — the whole-run
// load-balance view used for Fig 15. Per-window snapshots (Sample) are
// noisy on small fabrics where few flows are concurrently active.
func (n *Network) JainCumulative() float64 {
	var sum, sq float64
	m := 0
	for _, tor := range n.ToRs {
		for _, u := range tor.up {
			x := float64(u.meter.total)
			sum += x
			sq += x * x
			m++
		}
	}
	return jain(sum, sq, m)
}

// jain computes Jain's fairness index (Σx)²/(m·Σx²); all-zero inputs count
// as perfectly balanced.
func jain(sum, sq float64, m int) float64 {
	if m == 0 {
		return 0
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(m) * sq)
}

// BandwidthEfficiency returns the paper's §1 metric: the reciprocal of the
// average per-byte ToR-to-ToR hop count, i.e. delivered payload bytes
// divided by wire bytes crossing ToR-ToR links. 1.0 means every byte used
// one hop; 0.5 means two hops on average (VLB).
func (n *Network) BandwidthEfficiency() float64 {
	if n.Counters.TorToTorBytes == 0 {
		return 0
	}
	return float64(n.Counters.DataBytesDelivered) / float64(n.Counters.TorToTorBytes)
}

// ReroutedFraction returns the fraction of data packets that were
// recirculated at least once (§6.3 reports at most 3.03%).
func (n *Network) ReroutedFraction() float64 {
	if n.Counters.DataPackets == 0 {
		return 0
	}
	return float64(n.Counters.ReroutedPackets) / float64(n.Counters.DataPackets)
}
