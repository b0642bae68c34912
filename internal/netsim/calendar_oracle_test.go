package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// denseCalendar is a ToR's uplink calendar as it stood before a queue came to
// exist only while it holds a packet: one Queue per (port, cyclic slice), all
// of them built up front, kept as the reference the slot calendar must equal
// packet for packet. Its three operations are the three the ToR performs on
// a calendar — enqueueUplink's enqueue, pump's scheduled-traffic step and the
// slice-boundary expiry's dequeue — over the array.
type denseCalendar struct {
	cal [][]Queue // [port][cyclic slice]
}

func newDenseCalendar(ports, slices int, spec QueueSpec) *denseCalendar {
	d := &denseCalendar{cal: make([][]Queue, ports)}
	for sw := range d.cal {
		d.cal[sw] = make([]Queue, slices)
		for c := range d.cal[sw] {
			d.cal[sw][c] = Queue{MaxDataPackets: spec.MaxDataPackets, ECNThreshold: spec.ECNThreshold, Trim: spec.Trim}
		}
	}
	return d
}

func (d *denseCalendar) enqueue(sw, c int, p *Packet) bool { return d.cal[sw][c].Enqueue(p) }

// take is pump's calendar step: the head packet leaves if it serializes
// within left, and stays for the boundary otherwise.
func (d *denseCalendar) take(n *Network, sw, c int, left sim.Time) (p *Packet, late bool) {
	q := &d.cal[sw][c]
	p = q.Peek()
	if p == nil {
		return nil, false
	}
	if n.serdelayUp(p.WireLen) > left {
		return nil, true
	}
	return q.Dequeue(), false
}

func (d *denseCalendar) expire(sw, c int) *Packet { return d.cal[sw][c].Dequeue() }

func (d *denseCalendar) queuedBytes(sw int) int64 {
	var b int64
	for c := range d.cal[sw] {
		b += d.cal[sw][c].DataBytes()
	}
	return b
}

func (d *denseCalendar) inFlightData() int64 {
	var n int64
	for sw := range d.cal {
		for c := range d.cal[sw] {
			n += int64(d.cal[sw][c].countData())
		}
	}
	return n
}

// calendarPair drives the slot calendar of one ToR of a real network and the
// dense calendar with the same operations. A packet exists twice, once per
// side, under one Seq: a queue writes ECN marks and trims into the packet.
type calendarPair struct {
	t     *testing.T
	rng   *rand.Rand
	n     *Network
	tor   *ToR
	dense *denseCalendar
	S, d  int
	seq   int64
}

func newCalendarPair(t *testing.T, tors, uplinks int, spec QueueSpec, seed int64) *calendarPair {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = tors, uplinks, 1
	f := topo.MustFabric(cfg, "round-robin", 1)
	n := New(sim.NewEngine(), f, stubRouter{f}, spec, spec, RotorConfig{})
	return &calendarPair{
		t: t, rng: rand.New(rand.NewSource(seed)), n: n, tor: n.ToRs[tors/3],
		dense: newDenseCalendar(uplinks, f.Sched.S, spec), S: f.Sched.S, d: uplinks,
	}
}

// hopFor is a planned hop that lands in port sw's queue for cyclic slice c,
// one cycle ahead of the clock (which stands at zero: enqueueUplink then
// leaves the pump alone).
func (cp *calendarPair) hopFor(sw, c int) PlannedHop {
	return PlannedHop{To: cp.n.F.Sched.PeerOf(c, cp.tor.id, sw), AbsSlice: int64(cp.S + c)}
}

// port is the port a hop planned through port sw's slice-c circuit is queued
// at: sw itself, or the first switch with a circuit to the same peer when two
// switches join the pair in that slice (the 512-ToR schedule has such).
func (cp *calendarPair) port(sw, c int) int {
	return cp.n.F.Sched.SwitchFor(c, cp.tor.id, cp.n.F.Sched.PeerOf(c, cp.tor.id, sw))
}

// twins draws one random packet and returns it twice.
func (cp *calendarPair) twins() (a, b *Packet) {
	cp.seq++
	p := Packet{Type: Data, Seq: cp.seq, PayloadLen: 1436, WireLen: 1500, ECNCapable: cp.rng.Intn(2) == 0}
	switch cp.rng.Intn(8) {
	case 0:
		p = Packet{Type: Ack, Seq: cp.seq, WireLen: HeaderBytes}
	case 1:
		p.PayloadLen, p.WireLen = 200, 200+HeaderBytes
	}
	q := p
	return &p, &q
}

func (cp *calendarPair) samePacket(what string, got, want *Packet) {
	cp.t.Helper()
	if (got == nil) != (want == nil) {
		cp.t.Fatalf("%s: slot calendar gave %v, dense calendar %v", what, got, want)
	}
	if got != nil && (got.Seq != want.Seq || got.Type != want.Type || got.WireLen != want.WireLen ||
		got.ECNMarked != want.ECNMarked || got.Trimmed != want.Trimmed) {
		cp.t.Fatalf("%s: slot calendar gave seq %d type %d wire %d marked %v trimmed %v, dense calendar seq %d type %d wire %d marked %v trimmed %v",
			what, got.Seq, got.Type, got.WireLen, got.ECNMarked, got.Trimmed,
			want.Seq, want.Type, want.WireLen, want.ECNMarked, want.Trimmed)
	}
}

// enqueue puts the twins into (sw, c) on both sides — the slot side through
// ToR.enqueueUplink — and compares the verdicts and what the queues wrote
// into the packets. It reports the verdict.
func (cp *calendarPair) enqueue(sw, c int, a, b *Packet) bool {
	cp.t.Helper()
	sw = cp.port(sw, c)
	got := cp.tor.enqueueUplink(a, cp.hopFor(sw, c))
	want := cp.dense.enqueue(sw, c, b)
	if got != want {
		cp.t.Fatalf("enqueue of seq %d into port %d slice %d: slot calendar accepted = %v, dense = %v", a.Seq, sw, c, got, want)
	}
	cp.samePacket(fmt.Sprintf("after enqueue into port %d slice %d", sw, c), a, b)
	return got
}

func (cp *calendarPair) take(sw, c int) {
	cp.t.Helper()
	// Mostly a whole slice, sometimes too little for a full frame, sometimes
	// too little for a header.
	left := cp.n.F.SliceDuration
	switch cp.rng.Intn(6) {
	case 0:
		left = cp.n.serdelayUp(1500) - 1
	case 1:
		left = cp.n.serdelayUp(HeaderBytes) - 1
	}
	got, gotLate := cp.tor.up[sw].takeScheduled(c, left)
	want, wantLate := cp.dense.take(cp.n, sw, c, left)
	if gotLate != wantLate {
		cp.t.Fatalf("pump of port %d slice %d with %v left: slot calendar late = %v, dense = %v", sw, c, left, gotLate, wantLate)
	}
	cp.samePacket(fmt.Sprintf("pump of port %d slice %d", sw, c), got, want)
}

// boundary expires slice c on every port, in lockstep, and recirculates what
// comes out: each expired packet is enqueued again somewhere — now and then
// into the very queue being drained, which then hands it out once more, as
// the dense drain loop did — and the pump of another slot may run in
// between, as enqueueUplink runs it when a recirculated packet lands in the
// open slice.
func (cp *calendarPair) boundary(c int) {
	cp.t.Helper()
	for sw := 0; sw < cp.d; sw++ {
		for budget := 4 * cp.S * cp.d; ; budget-- {
			got, want := cp.tor.up[sw].expire(c), cp.dense.expire(sw, c)
			cp.samePacket(fmt.Sprintf("expiry of port %d slice %d", sw, c), got, want)
			if got == nil {
				break
			}
			if cp.rng.Intn(4) == 0 {
				continue // recirculation limit reached: the packet is dropped
			}
			tsw, tc := cp.rng.Intn(cp.d), cp.rng.Intn(cp.S)
			if budget > 0 && cp.rng.Intn(8) == 0 {
				tsw, tc = sw, c
			}
			cp.enqueue(tsw, tc, got, want)
			if cp.rng.Intn(3) == 0 {
				cp.take(cp.rng.Intn(cp.d), cp.rng.Intn(cp.S))
			}
		}
	}
}

// sameState compares every reader of the calendar.
func (cp *calendarPair) sameState(step int) {
	cp.t.Helper()
	for sw := 0; sw < cp.d; sw++ {
		if got, want := cp.tor.up[sw].queuedBytes(), cp.dense.queuedBytes(sw); got != want {
			cp.t.Fatalf("step %d: port %d queuedBytes %d, dense %d", step, sw, got, want)
		}
		for c := 0; c < cp.S; c++ {
			got := cp.n.CalendarBacklog(cp.tor.id, cp.hopFor(sw, c))
			if want := cp.dense.cal[cp.port(sw, c)][c].DataLen(); got != want {
				cp.t.Fatalf("step %d: CalendarBacklog of port %d slice %d is %d, dense %d", step, sw, c, got, want)
			}
		}
	}
	if got, want := cp.n.InFlightData(), cp.dense.inFlightData(); got != want {
		cp.t.Fatalf("step %d: InFlightData %d, dense %d", step, got, want)
	}
}

// Seeded random enqueue / pump / boundary-expiry / recirculation sequences on
// the smallest calendar, the paper's and warm512's, under a dropping, an
// ECN-marking and a trimming queue: the slot calendar and the dense one hand
// out the same packets in the same order, carrying the same marks, refuse
// the same packets, and every reader sees the same numbers after every step.
// When everything has drained, every queue is back on the domain's free list
// and as many were ever made as were ever live at once.
func TestCalendarSlotsMatchDenseCalendar(t *testing.T) {
	for _, fab := range []struct{ tors, uplinks, S int }{{6, 2, 3}, {108, 6, 18}, {512, 8, 64}} {
		for _, spec := range []QueueSpec{{MaxDataPackets: 5}, {MaxDataPackets: 8, ECNThreshold: 3}, {MaxDataPackets: 4, Trim: true}} {
			fab, spec := fab, spec
			t.Run(fmt.Sprintf("S%dd%d/%+v", fab.S, fab.uplinks, spec), func(t *testing.T) {
				cp := newCalendarPair(t, fab.tors, fab.uplinks, spec, int64(fab.S)*31+int64(spec.MaxDataPackets))
				if cp.S != fab.S {
					t.Fatalf("schedule has %d slices, want %d", cp.S, fab.S)
				}
				// Traffic aims at a window of slices that moves along the cycle,
				// as plans made a few slices ahead do; the boundary expires the
				// window's tail.
				var marks, trims, refusals int
				for step := 0; step < 4000; step++ {
					head := step / 40 % cp.S
					sw, c := cp.rng.Intn(cp.d), (head+cp.rng.Intn(3))%cp.S
					switch op := cp.rng.Intn(10); {
					case op < 6:
						a, b := cp.twins()
						switch ok := cp.enqueue(sw, c, a, b); {
						case !ok:
							refusals++
						case a.Trimmed:
							trims++
						case a.ECNMarked:
							marks++
						}
					case op < 9:
						cp.take(sw, c)
					default:
						cp.boundary((head + cp.S - 1) % cp.S)
					}
					// Every reader after every step; on the 512-queue calendar,
					// whose sweep is what the test's time goes to, every eighth.
					if cp.S*cp.d <= 108 || step%8 == 0 {
						cp.sameState(step)
					}
				}
				if (spec.ECNThreshold > 0 && marks == 0) || (spec.Trim && trims == 0) || (spec.ECNThreshold == 0 && !spec.Trim && refusals == 0) {
					t.Fatalf("%d marks, %d trims, %d refusals: the queue policy was never exercised", marks, trims, refusals)
				}
				for c := 0; c < cp.S; c++ {
					for sw := 0; sw < cp.d; sw++ {
						for cp.tor.up[sw].expire(c) != nil {
						}
					}
				}
				pool := &cp.tor.dom.cals
				if pool.live != 0 || uint64(len(pool.free)) != pool.made || pool.made != pool.peak || pool.made == 0 {
					t.Fatalf("after the drain: %d slots live, %d queues free, %d made, peak %d live; want all made queues free and made == peak",
						pool.live, len(pool.free), pool.made, pool.peak)
				}
				if pool.made >= uint64(cp.S*cp.d) && cp.S > 3 {
					t.Fatalf("%d queues made for a %d-queue calendar: the slots did not stay few", pool.made, cp.S*cp.d)
				}
			})
		}
	}
}

// A calendar costs what is in it: building the warm512 network (512 ToRs, 8
// uplinks, 2 hosts — 262,144 calendar queues by the schedule's count)
// allocates under 10 MB where the dense arrays alone took 31.
func TestNetworkBuildAllocatesNoCalendar(t *testing.T) {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = 512, 8, 2
	f := topo.MustFabric(cfg, "round-robin", 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := New(sim.NewEngine(), f, stubRouter{f}, NDPQueues(), NDPQueues(), DefaultRotor())
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); got > 10 {
		t.Fatalf("netsim.New at 512x8x2 allocated %.1f MB, want under 10", got)
	}
	if m := n.MemStats(); m.CalQueues != 0 || m.PeakCalSlots != 0 {
		t.Fatalf("an idle network holds %d calendar queues (%d live at peak)", m.CalQueues, m.PeakCalSlots)
	}
}
