package netsim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// loopSender is transport's RotorLB sender as it was before Host.SendRun
// existed: the instant it has credit it builds every segment of its flow and
// hands each to Host.Send. The body of push is kept verbatim; it is the
// reference Host.SendRun is compared against.
type loopSender struct {
	f    *netsim.Flow
	host *netsim.Host
	tor  *netsim.ToR

	next   int64
	dstToR int
	pushFn func()
}

func newLoopSender(n *netsim.Network, f *netsim.Flow) *loopSender {
	host := n.Hosts[f.SrcHost]
	s := &loopSender{f: f, host: host, tor: n.ToRs[host.ToR()], dstToR: n.HostToR(f.DstHost)}
	s.pushFn = s.push
	return s
}

func (s *loopSender) start() { s.push() }

// push streams segments while credit lasts, then parks on a notify.
func (s *loopSender) push() {
	for s.next < s.f.Size {
		if !s.tor.RotorHasCredit(s.dstToR) {
			s.tor.RotorNotify(s.dstToR, s.f, s.pushFn)
			return
		}
		length := int64(transport.MSS)
		if s.next+length > s.f.Size {
			length = s.f.Size - s.next
		}
		p := s.host.NewPacket()
		p.Flow = s.f
		p.Type = netsim.Data
		p.Seq = s.next
		p.PayloadLen = int(length)
		p.WireLen = int(length) + netsim.HeaderBytes
		s.host.Send(p)
		s.next += length
		s.f.BytesSent += length
	}
}

func (s *loopSender) Deliver(p *netsim.Packet) {}

// nicEnv is one small network under either sender.
type nicEnv struct {
	eng    *sim.Engine
	net    *netsim.Network
	stack  *transport.Stack
	oracle bool
	nextID int64
}

// newNICEnv builds the 16-ToR fabric with RotorLB on. relax selects UCMP with
// latency relaxation and its real StampBucket (flows of 64 KB and more ride
// RotorLB, shorter ones DCTCP); otherwise VLB, where every flow rides RotorLB
// and a stand-in stamper ages the bucket every 20 KB so that the value of
// Flow.BytesSent at stamping time shows in every trace.
func newNICEnv(oracle, relax bool) *nicEnv {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng := sim.NewEngine()
	var router netsim.Router = routing.NewVLB(fab)
	stamper := func(p *netsim.Packet) {
		if p.Flow != nil && p.Type == netsim.Data {
			p.Bucket = int(p.Flow.BytesSent / 20000)
		}
	}
	if relax {
		u := routing.NewUCMP(core.BuildPathSet(fab, 0.5))
		u.Relax, u.RelaxCutoff = true, 64<<10
		router, stamper = u, u.StampBucket
	}
	qs := transport.QueueSpec(transport.DCTCP)
	net := netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
	net.Stamper = stamper
	net.Start()
	return &nicEnv{eng: eng, net: net, stack: transport.NewStack(net, transport.DCTCP), oracle: oracle}
}

func (e *nicEnv) flow(src, dst int, size int64, arrival sim.Time) *netsim.Flow {
	e.nextID++
	return netsim.NewFlow(e.nextID, src, dst, size, arrival)
}

// launch starts a flow at its arrival: through the transport as it is, or,
// for a RotorLB flow under the oracle, with the loop sender in the
// transport's place (same endpoints otherwise, same start event).
func (e *nicEnv) launch(f *netsim.Flow) {
	if !e.oracle {
		e.stack.Launch(f)
		return
	}
	start, _ := e.stack.Attach(f)
	if f.RotorClass {
		ls := newLoopSender(e.net, f)
		f.SenderEP, start = ls, ls.start
	}
	e.net.Hosts[f.SrcHost].Eng().AtTag(f.Arrival,
		sim.EventTag{Kind: checkpoint.KindFlowStart, A: int32(f.Dense())}, start)
}

// attach registers a flow whose packets the scenario sends by hand.
func (e *nicEnv) attach(f *netsim.Flow) *netsim.Flow {
	e.stack.Attach(f)
	return f
}

// sendAt has a host send count hand-built packets of f at t: data segments
// from seq 0 on, or bare acks.
func (e *nicEnv) sendAt(t sim.Time, host int, f *netsim.Flow, typ netsim.PacketType, count int) {
	e.eng.At(t, func() {
		h := e.net.Hosts[host]
		for i := 0; i < count; i++ {
			p := h.NewPacket()
			p.Flow, p.Type, p.WireLen = f, typ, netsim.HeaderBytes
			if typ == netsim.Data {
				p.Seq, p.PayloadLen, p.WireLen = int64(i)*transport.MSS, transport.MSS, transport.MSS+netsim.HeaderBytes
			}
			h.Send(p)
		}
	})
}

// nicProbe is what both senders must agree on at one instant.
type nicProbe struct {
	Rings    string
	Counters netsim.Counters
	InFlight int64
}

type nicOutcome struct {
	arrivals []string // one line per packet reaching a ToR from a host
	probes   []nicProbe
	live     []uint64 // packets built — live, or parked in a VOQ — at each probe (not compared)
	buckets  map[int]bool
}

type nicScenario struct {
	name   string
	relax  bool
	setup  func(e *nicEnv)
	probes []sim.Time // ascending; the first must find runs pending
}

func runNICScenario(sc nicScenario, oracle bool) nicOutcome {
	e := newNICEnv(oracle, sc.relax)
	out := nicOutcome{buckets: map[int]bool{}}
	e.net.TapHostArrivals(func(tor int, p *netsim.Packet) {
		id := int64(-1)
		if p.Flow != nil {
			id = p.Flow.ID
		}
		if p.Type == netsim.Data {
			out.buckets[p.Bucket] = true
		}
		out.arrivals = append(out.arrivals, fmt.Sprintf("t=%d tor=%d flow=%d %s seq=%d wire=%d bucket=%d sentAt=%d",
			e.eng.Now(), tor, id, p.Type, p.Seq, p.WireLen, p.Bucket, p.SentAt))
	})
	sc.setup(e)
	for _, at := range sc.probes {
		e.eng.Run(at)
		var rings string
		for h := range e.net.Hosts {
			if ring, rr := e.net.NICRing(h); len(ring) > 0 || rr != 0 {
				rings += fmt.Sprintf("host %d: %v rr=%d; ", h, ring, rr)
			}
		}
		out.probes = append(out.probes, nicProbe{rings, e.net.Counters, e.net.InFlightData()})
		_, _, live, parked := e.net.PoolStats()
		out.live = append(out.live, live+parked)
	}
	return out
}

const nicSer = 300 * sim.Nanosecond // one 1500-byte frame on the 40 Gbps host link

var nicScenarios = []nicScenario{
	{
		// The NIC transmits the first segment at once and retires the flow
		// from the ring; the second segment puts it back. The last segment
		// is 100 bytes.
		name: "idle NIC, empty ring, short last segment",
		setup: func(e *nicEnv) {
			e.launch(e.flow(0, 17, 200*transport.MSS+100, sim.Microsecond))
		},
		probes: []sim.Time{20 * sim.Microsecond, 2 * sim.Millisecond},
	},
	{
		// Flow 1's hand-sent packets keep the NIC busy until exactly the
		// instant flow 2 starts: its start event was scheduled first, so it
		// runs before the NIC's own pump event of that instant and finds the
		// NIC free with flow 1 on the ring.
		name: "idle NIC at now == busyUntil, other flows on the ring",
		setup: func(e *nicEnv) {
			e.launch(e.flow(0, 19, 300*transport.MSS, sim.Microsecond+nicSer))
			e.sendAt(sim.Microsecond, 0, e.attach(e.flow(0, 17, 1<<20, 0)), netsim.Data, 6)
			e.sendAt(sim.Microsecond, 0, e.attach(e.flow(0, 21, 1<<20, 0)), netsim.Data, 3)
		},
		probes: []sim.Time{20 * sim.Microsecond, 2 * sim.Millisecond},
	},
	{
		name: "busy NIC",
		setup: func(e *nicEnv) {
			e.launch(e.flow(0, 19, 300*transport.MSS+1, sim.Microsecond+nicSer/2))
			e.sendAt(sim.Microsecond, 0, e.attach(e.flow(0, 17, 1<<20, 0)), netsim.Data, 6)
		},
		probes: []sim.Time{20 * sim.Microsecond, 2 * sim.Millisecond},
	},
	{
		// Two RotorLB flows share host 0 with acks the host returns for a
		// flow it receives. With the credit cap at eight frames and no
		// indirection, ToR 0's VOQ for rack 8 stays above the cap between direct
		// circuits, so the later flows to that rack park and are started from
		// inside an uplink pump.
		name: "two rotor flows and control traffic on one host, senders parked on credit",
		setup: func(e *nicEnv) {
			e.net.Rotor.LocalCapBytes, e.net.Rotor.NonlocalCapBytes = 8*1500, 0
			e.launch(e.flow(0, 17, 400*transport.MSS, sim.Microsecond))
			e.launch(e.flow(1, 16, 300*transport.MSS, sim.Microsecond))
			e.launch(e.flow(0, 23, 350*transport.MSS+700, 3*sim.Microsecond))
			e.launch(e.flow(0, 16, 120*transport.MSS+9, 20*sim.Microsecond))
			e.launch(e.flow(0, 17, 500, 25*sim.Microsecond))
			e.launch(e.flow(1, 17, 50*transport.MSS, 30*sim.Microsecond))
			in := e.attach(e.flow(9, 0, 1<<20, 0))
			for i := 0; i < 40; i++ {
				e.sendAt(sim.Microsecond+sim.Time(i)*7*nicSer/2, 0, in, netsim.Ack, 1+i%2)
			}
		},
		probes: []sim.Time{30 * sim.Microsecond, 200 * sim.Microsecond, 3 * sim.Millisecond},
	},
	{
		// The real stamper: a segment's bucket is the flow's age when the
		// loop would have stamped it. The DCTCP flows add data and acks of
		// their own to the NICs the RotorLB flows leave through.
		name:  "UCMP latency relaxation, real StampBucket",
		relax: true,
		setup: func(e *nicEnv) {
			e.launch(e.flow(0, 17, 3<<20, sim.Microsecond))
			e.launch(e.flow(0, 9, 30<<10, 2*sim.Microsecond))
			e.launch(e.flow(8, 0, 40<<10, 2*sim.Microsecond))
			e.launch(e.flow(1, 5, 1<<20+17, 5*sim.Microsecond))
			e.launch(e.flow(0, 30, 100<<10, 40*sim.Microsecond))
		},
		probes: []sim.Time{60 * sim.Microsecond, 4 * sim.Millisecond},
	},
}

// Host.SendRun against the per-packet loop it replaced: every packet reaches
// its ToR at the same instant with the same Seq, WireLen, Bucket and SentAt,
// and at every probe the NIC rings and scan positions, the full Counters and
// InFlightData are equal — including at instants where most of a flow is
// still an unbuilt run, which the smaller live-packet count shows.
func TestSendRunMatchesPerPacketLoop(t *testing.T) {
	for _, sc := range nicScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, got := runNICScenario(sc, true), runNICScenario(sc, false)
			if len(want.arrivals) < 100 {
				t.Fatalf("only %d packets reached a ToR: the scenario is vacuous", len(want.arrivals))
			}
			if len(want.buckets) < 2 {
				t.Fatalf("every data packet carries the same bucket %v: stamping is not exercised", want.buckets)
			}
			for i := range want.arrivals {
				if i >= len(got.arrivals) || got.arrivals[i] != want.arrivals[i] {
					g := "(none)"
					if i < len(got.arrivals) {
						g = got.arrivals[i]
					}
					t.Fatalf("arrival %d differs\n loop:    %s\n SendRun: %s", i, want.arrivals[i], g)
				}
			}
			if len(got.arrivals) != len(want.arrivals) {
				t.Fatalf("SendRun delivered %d packets to ToRs, the loop %d", len(got.arrivals), len(want.arrivals))
			}
			for i := range want.probes {
				if !reflect.DeepEqual(got.probes[i], want.probes[i]) {
					t.Fatalf("probe at %v differs\n loop:    %+v\n SendRun: %+v", sc.probes[i], want.probes[i], got.probes[i])
				}
				// The ledger: what is neither finished nor parked is on a wire.
				c := want.probes[i].Counters
				if onWire := c.DataInjected - c.DataDelivered - c.TrimmedDelivered - c.DataDropped - want.probes[i].InFlight; onWire < 0 {
					t.Fatalf("probe at %v: ledger counts %d more packets parked than exist", sc.probes[i], -onWire)
				}
			}
			if got.live[0]*2 > want.live[0] {
				t.Fatalf("at %v SendRun holds %d built packets, the loop %d: no run was pending, the comparison is vacuous",
					sc.probes[0], got.live[0], want.live[0])
			}
		})
	}
}

// Launching a RotorLB flow costs the same whatever its size: one packet and
// a run record, where the per-packet loop built 46,736 packets (~7 MB) for
// 64 MB. The conservation ledger still accounts for every one of them.
func TestHostNICMemoryIndependentOfFlowSize(t *testing.T) {
	e := newNICEnv(false, false)
	const size = 64 << 20
	f := e.flow(0, 17, size, sim.Microsecond)
	e.launch(f)
	e.eng.Run(sim.Microsecond - 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.eng.Run(sim.Microsecond)
	runtime.ReadMemStats(&after)
	if f.BytesSent != size {
		t.Fatalf("the flow did not start: BytesSent = %d", f.BytesSent)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("launching a %d-byte flow allocated %d bytes; NIC state is sized by the flow's bytes", size, got)
	}
	segments := int64((size + transport.MSS - 1) / transport.MSS)
	c := e.net.Counters
	if c.DataInjected != segments || c.DataBytesSent != size {
		t.Fatalf("injected %d packets / %d bytes, want %d / %d", c.DataInjected, c.DataBytesSent, segments, size)
	}
	// One segment is on the wire to the ToR; the rest are the run.
	if got := e.net.InFlightData(); got != segments-1 {
		t.Fatalf("InFlightData = %d, want %d", got, segments-1)
	}
	if _, _, live, _ := e.net.PoolStats(); live != 1 {
		t.Fatalf("%d packets built, want the one on the wire", live)
	}
}
