package netsim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ucmp/internal/sim"
)

// park reduces p to its record at the tail of q and releases it, as a push
// does, without the push's accounting.
func park(r *rotorState, q *voq, p *Packet) {
	q.push(&r.tor.dom.voqs, r.tor.net.record(p))
	r.tor.dom.release(p)
}

// A record is at most 32 bytes and a chunk at most 320: a VOQ holding one
// record must not cost more than the 160-byte packet and fifo slot it
// replaced, and at the peak of a paper-scale rotor run three quarters of a
// million records are parked.
func TestVOQRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(voqRec{}); got > 32 {
		t.Fatalf("voqRec is %d bytes, want <= 32", got)
	}
	if got := unsafe.Sizeof(voqChunk{}); got > 320 {
		t.Fatalf("voqChunk is %d bytes, want <= 320", got)
	}
	if off := unsafe.Offsetof(voqChunk{}.next); off != 0 {
		t.Fatalf("voqChunk.next at offset %d: the chunk's only pointer must come first", off)
	}
}

// records counts the records q holds: its runs, not its packets.
func records(q *voq) (k int) {
	i := int(q.hi)
	for c := q.head; c != nil; c = c.next {
		end := voqChunkRecs
		if c == q.tail {
			end = int(q.ti)
		}
		k += end - i
		i = 0
	}
	return k
}

// segmenter makes the packets of one flow as a run-forming sender does:
// byte-contiguous segments of one MSS under one SentAt, with the fields a
// record compares mostly held — and, now and then, a short segment, a gap
// where one ends, a segment longer than the MSS, or a new SentAt, bucket,
// hop count or flag.
type segmenter struct {
	f       *Flow
	seq     int64
	mss     int
	sentAt  sim.Time
	bucket  int
	torHops int
	ecn     bool
	trimmed bool
}

func (s *segmenter) next(n *Network, rng *rand.Rand, p *Packet) {
	payload := s.mss
	switch rng.Intn(64) {
	case 0, 1:
		payload = rng.Intn(s.mss) // a short segment
	case 2:
		payload = s.mss + 1 + rng.Intn(64)
	case 3:
		s.sentAt += sim.Time(1 + rng.Intn(3))
	case 4:
		s.bucket ^= 1 << rng.Intn(16)
	case 5:
		s.torHops = rng.Intn(3)
	case 6:
		s.ecn = !s.ecn
	case 7:
		s.trimmed = !s.trimmed
	}
	*p = *dataPkt(n, s.f, s.seq, HeaderBytes+payload)
	p.SentAt, p.Bucket, p.TorHops, p.ECNCapable = s.sentAt, s.bucket, s.torHops, s.ecn
	if s.trimmed {
		p.Trimmed, p.WireLen = true, HeaderBytes
	}
	// A short segment is usually followed by the byte after it, and
	// sometimes by the next MSS boundary: a gap no run may close.
	s.seq += int64(payload)
	if payload < s.mss && rng.Intn(2) == 0 {
		s.seq += int64(s.mss - payload)
	}
}

// Every packet a record can hold comes back field for field, whatever else
// is queued around it: offsets past 2^32, short last segments, trimmed
// headers, both ECN bits, zero to two ToR hops, every bucket a u16 holds.
// Scattered, every packet takes a record of its own; in runs, consecutive
// segments of a few interleaved flows share records, a pop shortens a run
// that a push may go on extending, and the segments a run must not absorb —
// after a short one, across a gap, longer than the MSS, with another SentAt,
// bucket, hop count or flag — come back as themselves.
func TestVOQRecordRoundTrip(t *testing.T) {
	for _, runs := range []bool{false, true} {
		n := rotorNet(t)
		tor := n.ToRs[0]
		r := tor.rotor
		var flows []*Flow
		var segs []*segmenter
		for i := 0; i < 40; i++ {
			f := NewFlow(int64(1000+i), i%n.F.NumHosts(), (7*i+3)%n.F.NumHosts(), 1<<44, 0)
			n.RegisterFlow(f)
			flows = append(flows, f)
			segs = append(segs, &segmenter{f: f, seq: int64(i) << 36, mss: []int{1436, 1000, 536}[i%3], sentAt: sim.Time(i)})
		}
		rng := rand.New(rand.NewSource(19))
		var q voq
		var want []Packet
		// drained is set while the head run has lost a packet to a pop;
		// extended counts pushes that grew such a run while it was the tail.
		drained, extended, peakPkts, peakRecs := false, 0, 0, 0
		for step := 0; step < 20000; step++ {
			if rng.Intn(5) < 3 {
				p := tor.dom.newPacket()
				if runs {
					// Mostly one flow, so the queue holds long runs of it.
					segs[max(rng.Intn(32)-29, 0)].next(n, rng, p)
				} else {
					f := flows[rng.Intn(len(flows))]
					*p = *dataPkt(n, f, rng.Int63n(1<<44), HeaderBytes+rng.Intn(1437))
					p.SentAt = sim.Time(rng.Int63())
					p.Bucket = rng.Intn(1 << 16)
					p.TorHops = rng.Intn(3)
					p.ECNCapable, p.ECNMarked = rng.Intn(2) == 0, rng.Intn(2) == 0
					if rng.Intn(8) == 0 {
						p.Trimmed, p.WireLen = true, HeaderBytes
					}
				}
				w := *p
				want = append(want, w)
				// The link stamp is not kept: flushIngress has used it.
				p.linkSrc, p.linkSeq = 3, uint64(step)
				tailIsDrainedHead := drained && q.head == q.tail && int(q.hi) == int(q.ti)-1
				before := records(&q)
				park(r, &q, p)
				if tailIsDrainedHead && records(&q) == before {
					extended++
				}
				if q.len() > peakPkts {
					peakPkts, peakRecs = q.len(), records(&q)
				}
				continue
			}
			if q.len() != len(want) {
				t.Fatalf("runs %v step %d: VOQ holds %d packets, %d were parked", runs, step, q.len(), len(want))
			}
			if q.len() == 0 {
				continue
			}
			if got := q.front().wireLen(); got != want[0].WireLen {
				t.Fatalf("runs %v step %d: head record reads %d wire bytes, packet had %d", runs, step, got, want[0].WireLen)
			}
			drained = q.front().n > 1
			got := *r.unpark(&q)
			got.Route = nil
			if !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("runs %v step %d: rebuilt\n %+v\nparked\n %+v", runs, step, got, want[0])
			}
			want = want[1:]
		}
		switch {
		case !runs && peakRecs != peakPkts:
			t.Fatalf("scattered: %d packets in %d records at the peak; no two should share one", peakPkts, peakRecs)
		case runs && (peakRecs*3 > peakPkts || extended == 0):
			t.Fatalf("runs: %d packets in %d records at the peak, %d pushes onto a drained head: the walk forms no runs",
				peakPkts, peakRecs, extended)
		}
	}
}

// A packet carrying anything a record would drop is refused, with the field
// named, whether or not PoisonPackets is set — and the VOQ is left as it was.
func TestVOQRecordRefusesLossyPacket(t *testing.T) {
	n := rotorNet(t)
	other := rotorNet(t)
	r := n.ToRs[0].rotor
	fl := NewFlow(1, 0, 9*n.F.HostsPerToR, 1<<20, 0)
	n.RegisterFlow(fl)
	foreign := NewFlow(1, 0, 9*n.F.HostsPerToR, 1<<20, 0)
	other.RegisterFlow(foreign) // same dense index, another network
	cases := []struct {
		field string
		spoil func(p *Packet)
	}{
		{"Flow", func(p *Packet) { p.Flow = nil }},
		{"Flow", func(p *Packet) { p.Flow = NewFlow(2, 0, 18, 1, 0) }},
		{"Flow", func(p *Packet) { p.Flow = foreign }},
		{"Type", func(p *Packet) { p.Type = Ack }},
		{"Route", func(p *Packet) { p.Route = []PlannedHop{{To: 9, AbsSlice: 4}} }},
		{"RouteIdx", func(p *Packet) { p.RouteIdx = 1 }},
		{"Rerouted", func(p *Packet) { p.Rerouted = 2 }},
		{"WasRerouted", func(p *Packet) { p.WasRerouted = true }},
		{"FaultAt", func(p *Packet) { p.FaultAt = 5 }},
		{"RecoveredVia", func(p *Packet) { p.RecoveredVia = RecoveryBackup }},
		{"EchoECN", func(p *Packet) { p.EchoECN = true }},
		{"SrcHost", func(p *Packet) { p.SrcHost = 1 }},
		{"DstHost", func(p *Packet) { p.DstHost++ }},
		{"SrcToR", func(p *Packet) { p.SrcToR = 3 }},
		{"DstToR", func(p *Packet) { p.DstToR = 8 }},
		{"PayloadLen", func(p *Packet) { p.PayloadLen, p.WireLen = -1, HeaderBytes-1 }},
		{"PayloadLen", func(p *Packet) { p.PayloadLen, p.WireLen = 1<<16, 1<<16+HeaderBytes }},
		{"PayloadLen", func(p *Packet) { p.PayloadLen, p.WireLen = 1<<32, 1<<32+HeaderBytes }},
		{"WireLen", func(p *Packet) { p.WireLen = 1400 }},
		{"WireLen", func(p *Packet) { p.Trimmed = true }}, // trimmed, still full length
		{"WireLen", func(p *Packet) { p.WireLen = HeaderBytes }},
		{"Bucket", func(p *Packet) { p.Bucket = 1 << 16 }},
		{"Bucket", func(p *Packet) { p.Bucket = -1 }},
		{"TorHops", func(p *Packet) { p.TorHops = 256 }},
		{"TorHops", func(p *Packet) { p.TorHops = -1 }},
	}
	defer func() { PoisonPackets = false }()
	for _, poison := range []bool{false, true} {
		PoisonPackets = poison
		for i, c := range cases {
			p := dataPkt(n, fl, 1436, 1500)
			c.spoil(p)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "with "+c.field+" =") {
						t.Fatalf("case %d (poison %v): parking a packet with a bad %s: %q", i, poison, c.field, msg)
					}
				}()
				r.pushNonlocal(p)
			}()
		}
		if _, _, _, parked := n.PoolStats(); parked != 0 || r.nonlocalPkts != 0 || r.totalNonlocal != 0 {
			t.Fatalf("refused packets left %d parked, %d queued, %d bytes behind", parked, r.nonlocalPkts, r.totalNonlocal)
		}
	}
}

// Chunks are drawn from the domain's free list and all come back: after a
// burst drains, every chunk ever allocated is on the list and holds nothing
// of the burst; chunks allocated equals the most that were ever in use at
// once; a second burst of the same shape allocates none; a VOQ holding one
// record holds one chunk; and so does a VOQ holding one long run.
func TestVOQChunkAccounting(t *testing.T) {
	n := rotorNet(t)
	tor := n.ToRs[0]
	r := tor.rotor
	pool := &tor.dom.voqs
	dsts := n.F.NumToRs
	flows := make([]*Flow, dsts)
	for d := range flows {
		flows[d] = NewFlow(int64(d), 0, d*n.F.HostsPerToR, 1<<30, 0)
		n.RegisterFlow(flows[d])
	}
	freeLen := func() (c uint64) {
		for ch := pool.free; ch != nil; ch = ch.next {
			if ch.recs != [voqChunkRecs]voqRec{} {
				t.Fatalf("chunk on the free list still holds a record: %+v", ch.recs)
			}
			c++
		}
		return c
	}
	r.alloc()
	rng := rand.New(rand.NewSource(7))
	var inUseMax uint64
	burst := func() {
		qs := make([]int, 0, 4096)
		for i := 0; i < 4096; i++ {
			d := 1 + rng.Intn(dsts-1)
			park(r, &r.nonlocal[d], dataPkt(n, flows[d], int64(i), 1500))
			qs = append(qs, d)
			if rng.Intn(3) == 0 { // interleave pops so chunks recycle mid-burst
				r.unpark(&r.nonlocal[qs[0]])
				qs = qs[1:]
			}
			if inUse := pool.chunks - freeLen(); inUse > inUseMax {
				inUseMax = inUse
			}
		}
		for _, d := range qs {
			r.unpark(&r.nonlocal[d])
		}
	}
	burst()
	if pool.chunks == 0 || pool.chunks != inUseMax || freeLen() != pool.chunks {
		t.Fatalf("after burst and drain: %d chunks allocated, %d in use at the peak, %d on the free list",
			pool.chunks, inUseMax, freeLen())
	}
	if pool.parked != 0 || pool.peak == 0 {
		t.Fatalf("after drain: %d packets parked, peak %d", pool.parked, pool.peak)
	}
	before := pool.chunks
	rng = rand.New(rand.NewSource(7))
	burst()
	if pool.chunks != before {
		t.Fatalf("a second burst of the same shape allocated %d more chunks", pool.chunks-before)
	}

	// One record, one chunk: N sparse VOQs cost N chunks, not N·k.
	for d := 1; d < dsts; d++ {
		park(r, &r.nonlocal[d], dataPkt(n, flows[d], 0, 1500))
	}
	if inUse := pool.chunks - freeLen(); inUse != uint64(dsts-1) {
		t.Fatalf("%d VOQs of one record hold %d chunks", dsts-1, inUse)
	}

	// Steady state — a push for every pop — allocates nothing: the packet
	// goes to the pool and comes from it, the chunk likewise.
	d := 0
	if avg := testing.AllocsPerRun(1000, func() {
		d = 1 + d%(dsts-1)
		p := r.unpark(&r.nonlocal[d])
		park(r, &r.nonlocal[d], p)
	}); avg != 0 {
		t.Fatalf("steady-state park/unpark allocates %.1f times per packet", avg)
	}

	// One run, one chunk: contiguous full segments of one flow under one
	// SentAt share a record, however many there are.
	for d := 1; d < dsts; d++ {
		r.unpark(&r.nonlocal[d])
	}
	q := &r.nonlocal[9]
	for i := 0; i < 4096; i++ {
		park(r, q, dataPkt(n, flows[9], int64(i)*1436, 1500))
	}
	if inUse := pool.chunks - freeLen(); inUse != 1 || q.len() != 4096 || pool.parked != 4096 {
		t.Fatalf("4096 contiguous segments of one flow: %d packets parked, %d queued, in %d chunks; want one chunk",
			pool.parked, q.len(), inUse)
	}
}
