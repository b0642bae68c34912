package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// fifoRotor is rotorState as it stood while a VOQ was a fifo of *Packet:
// fields, pushes, selectPacket, the occupancy-bitset walk and the credit
// wake-up are kept verbatim, as the oracle the record VOQ is checked against.
// A packet pushed here stays the packet that comes out; one pushed into the
// rotorState under test is released and rebuilt, so the two are compared by
// (flow, Seq) and field for field, never by pointer.
type fifoRotor struct {
	tor *ToR
	n   int

	local    []fifo
	nonlocal []fifo

	localBytes    []int64
	nonlocalBytes []int64
	totalNonlocal int64

	localPkts    int
	nonlocalPkts int

	localSet []uint64

	waiters [][]rotorWaiter

	rr int
}

func newFifoRotor(t *ToR, n int) *fifoRotor { return &fifoRotor{tor: t, n: n} }

func (r *fifoRotor) alloc() {
	if r.local != nil {
		return
	}
	r.local = make([]fifo, r.n)
	r.nonlocal = make([]fifo, r.n)
	r.localBytes = make([]int64, r.n)
	r.nonlocalBytes = make([]int64, r.n)
	r.localSet = make([]uint64, (r.n+63)/64)
	r.waiters = make([][]rotorWaiter, r.n)
}

func (r *fifoRotor) pushLocal(p *Packet) {
	r.alloc()
	dst := p.DstToR
	r.local[dst].push(p)
	r.localSet[dst>>6] |= 1 << (dst & 63)
	r.localBytes[dst] += int64(p.WireLen)
	r.localPkts++
	r.tor.pumpFor(dst) // direct circuit may be up right now
	// Any circuit can carry it indirectly; kick all ports so spare slice
	// capacity is used promptly.
	for _, u := range r.tor.up {
		u.pump()
	}
}

func (r *fifoRotor) pushNonlocal(p *Packet) {
	r.alloc()
	dst := p.DstToR
	r.nonlocal[dst].push(p)
	r.nonlocalBytes[dst] += int64(p.WireLen)
	r.totalNonlocal += int64(p.WireLen)
	r.nonlocalPkts++
	r.tor.pumpFor(dst)
}

func (r *fifoRotor) selectPacket(peer int, budget sim.Time, abs int64) *Packet {
	if r.localPkts == 0 && r.nonlocalPkts == 0 {
		return nil
	}
	net := r.tor.net
	// 1. Nonlocal traffic completing its second hop.
	if r.nonlocal[peer].len() > 0 {
		p := r.nonlocal[peer].items[r.nonlocal[peer].head]
		if net.serdelayUp(p.WireLen) > budget {
			return nil
		}
		r.nonlocal[peer].pop()
		r.nonlocalBytes[peer] -= int64(p.WireLen)
		r.totalNonlocal -= int64(p.WireLen)
		r.nonlocalPkts--
		return p
	}
	// 2. Local traffic with a direct circuit.
	if r.local[peer].len() > 0 {
		p := r.local[peer].items[r.local[peer].head]
		if net.serdelayUp(p.WireLen) > budget {
			return nil
		}
		r.popLocal(peer, p)
		return p
	}
	// 3. Indirect: spare capacity carries other destinations via peer,
	// bounded by the peer's nonlocal backlog as of the last published slice
	// boundary (lossless stand-in for RotorLB's offer/accept).
	if net.rotorBacklogAt(abs, peer) >= net.Rotor.NonlocalCapBytes {
		return nil
	}
	dst := r.nextIndirect(peer)
	if dst < 0 {
		return nil
	}
	p := r.local[dst].items[r.local[dst].head]
	if net.serdelayUp(p.WireLen) > budget {
		return nil
	}
	r.popLocal(dst, p)
	if r.rr = dst + 1; r.rr == r.n {
		r.rr = 0
	}
	return p
}

func (r *fifoRotor) nextIndirect(peer int) int {
	for _, span := range [2][2]int{{r.rr, r.n}, {0, r.rr}} {
		for dst := r.nextLocal(span[0]); dst >= 0 && dst < span[1]; dst = r.nextLocal(dst + 1) {
			if dst != peer && dst != r.tor.id {
				return dst
			}
		}
	}
	return -1
}

func (r *fifoRotor) nextLocal(from int) int {
	w := from >> 6
	if w >= len(r.localSet) {
		return -1
	}
	word := r.localSet[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(r.localSet) {
			return -1
		}
		word = r.localSet[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

func (r *fifoRotor) popLocal(dst int, p *Packet) {
	r.local[dst].pop()
	if r.local[dst].len() == 0 {
		r.localSet[dst>>6] &^= 1 << (dst & 63)
	}
	r.creditLocal(dst, p)
}

func (r *fifoRotor) creditLocal(dst int, p *Packet) {
	r.localBytes[dst] -= int64(p.WireLen)
	r.localPkts--
	if r.localBytes[dst] < r.tor.net.Rotor.LocalCapBytes && len(r.waiters[dst]) > 0 {
		ws := r.waiters[dst]
		r.waiters[dst] = nil
		for _, w := range ws {
			w.fn()
		}
	}
}

// selectPacketLinear is selectPacket as it stood before the occupancy
// bitset — the indirect hop found by scanning all N local VOQs from rr — kept
// verbatim as the oracle the bitset walk is checked against. It never reads
// localSet.
func (r *fifoRotor) selectPacketLinear(peer int, budget sim.Time, abs int64) *Packet {
	if r.localPkts == 0 && r.nonlocalPkts == 0 {
		return nil
	}
	fits := func(wireLen int) bool {
		return r.tor.net.serdelayUp(wireLen) <= budget
	}
	// 1. Nonlocal traffic completing its second hop.
	if r.nonlocal[peer].len() > 0 {
		p := r.nonlocal[peer].items[r.nonlocal[peer].head]
		if !fits(p.WireLen) {
			return nil
		}
		r.nonlocal[peer].pop()
		r.nonlocalBytes[peer] -= int64(p.WireLen)
		r.totalNonlocal -= int64(p.WireLen)
		r.nonlocalPkts--
		return p
	}
	// 2. Local traffic with a direct circuit.
	if r.local[peer].len() > 0 {
		p := r.local[peer].items[r.local[peer].head]
		if !fits(p.WireLen) {
			return nil
		}
		r.local[peer].pop()
		r.creditLocal(peer, p)
		return p
	}
	// 3. Indirect.
	if r.tor.net.rotorBacklogAt(abs, peer) >= r.tor.net.Rotor.NonlocalCapBytes {
		return nil
	}
	n := len(r.local)
	for i := 0; i < n; i++ {
		dst := (r.rr + i) % n
		if dst == peer || dst == r.tor.id || r.local[dst].len() == 0 {
			continue
		}
		p := r.local[dst].items[r.local[dst].head]
		if !fits(p.WireLen) {
			return nil
		}
		r.local[dst].pop()
		r.creditLocal(dst, p)
		r.rr = (dst + 1) % n
		return p
	}
	return nil
}

// checkLocalSet asserts the bitset invariant: bit dst set exactly while
// local[dst] is non-empty, and nothing set at or beyond n.
func checkLocalSet(t *testing.T, r *rotorState) {
	t.Helper()
	for dst := 0; dst < len(r.localSet)*64; dst++ {
		set := r.localSet[dst>>6]&(1<<(dst&63)) != 0
		want := dst < r.n && r.local[dst].len() > 0
		if set != want {
			t.Fatalf("n=%d: localSet bit %d is %v, VOQ non-empty is %v", r.n, dst, set, want)
		}
	}
}

// rotorNet512 is a 512-ToR rotor network (one host per ToR) whose ToR 0 has
// no rotor of its own: a test attaches rotorStates of any size up to 512 to
// it, and the uplink pumps pushLocal kicks find nothing to drain behind the
// test's back. The flows returned are rotor-class, registered, one per
// destination ToR, all sourced at host 1.
func rotorNet512(t testing.TB) (*Network, []*Flow) {
	t.Helper()
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = 512, 8, 1
	f := topo.MustFabric(cfg, "round-robin", 1)
	n := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
	n.Start()
	n.ToRs[0].rotor = nil
	flows := make([]*Flow, cfg.NumToRs)
	for dst := range flows {
		flows[dst] = NewFlow(int64(dst), 1, dst, 1<<40, 0)
		n.RegisterFlow(flows[dst])
		flows[dst].RotorClass = true
	}
	return n, flows
}

// dataPkt is a data packet of f as its source host would have sealed it.
func dataPkt(n *Network, f *Flow, seq int64, wireLen int) *Packet {
	return &Packet{Flow: f, Type: Data, Seq: seq, PayloadLen: wireLen - HeaderBytes, WireLen: wireLen,
		SrcHost: f.SrcHost, DstHost: f.DstHost, SrcToR: n.HostToR(f.SrcHost), DstToR: n.HostToR(f.DstHost)}
}

// sameRotorPick fails unless the record VOQ's pick and the fifo VOQ's are the
// same packet: both nil, or equal in every field but the link stamp a parked
// packet does not keep.
func sameRotorPick(t *testing.T, where string, got, want *Packet) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: record VOQ picked %v, fifo VOQ %v", where, got, want)
		}
		return
	}
	g, w := *got, *want
	g.Route, w.Route = nil, nil
	w.linkSrc, w.linkSeq = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: record VOQ picked flow %d seq %d, fifo VOQ flow %d seq %d\n record: %+v\n fifo:   %+v",
			where, got.Flow.ID, got.Seq, want.Flow.ID, want.Seq, g, w)
	}
}

// sameRotorState fails unless every number the rest of the fabric reads off a
// rotor — byte and packet counts, the occupancy bitset, the scan position,
// per-VOQ lengths, parked waiters — is the same on both sides.
func sameRotorState(t *testing.T, where string, r *rotorState, o *fifoRotor) {
	t.Helper()
	if r.rr != o.rr || r.localPkts != o.localPkts || r.nonlocalPkts != o.nonlocalPkts || r.totalNonlocal != o.totalNonlocal {
		t.Fatalf("%s: rr %d/%d local %d/%d nonlocal %d/%d totalNonlocal %d/%d", where,
			r.rr, o.rr, r.localPkts, o.localPkts, r.nonlocalPkts, o.nonlocalPkts, r.totalNonlocal, o.totalNonlocal)
	}
	if (r.local == nil) != (o.local == nil) {
		t.Fatalf("%s: allocated %v, oracle %v", where, r.local != nil, o.local != nil)
	}
	if !reflect.DeepEqual(r.localBytes, o.localBytes) || !reflect.DeepEqual(r.nonlocalBytes, o.nonlocalBytes) ||
		!reflect.DeepEqual(r.localSet, o.localSet) {
		t.Fatalf("%s: per-destination bytes or occupancy bitset diverged", where)
	}
	for dst := range r.local {
		if r.local[dst].len() != o.local[dst].len() || r.nonlocal[dst].len() != o.nonlocal[dst].len() ||
			len(r.waiters[dst]) != len(o.waiters[dst]) {
			t.Fatalf("%s: dst %d holds %d/%d local, %d/%d nonlocal, %d/%d waiters", where, dst,
				r.local[dst].len(), o.local[dst].len(), r.nonlocal[dst].len(), o.nonlocal[dst].len(),
				len(r.waiters[dst]), len(o.waiters[dst]))
		}
	}
}

// The bitset walk must choose exactly what the linear scan chose: same
// packet, same rr afterwards, for every occupancy, rr, peer and budget —
// including sizes that are not a multiple of 64, all-empty, and occupancy
// only at the destinations the indirect hop skips (peer and self).
func TestRotorIndirectMatchesLinearScan(t *testing.T) {
	net, flows := rotorNet512(t)
	tor := net.ToRs[0]
	mtu := net.serdelayUp(net.F.MTU)
	budgets := []sim.Time{fitsAll, noTime, mtu, mtu - 1}
	wireLens := []int{net.F.MTU, HeaderBytes, 700}
	rng := rand.New(rand.NewSource(16))
	var seq int64
	for _, n := range []int{5, 64, 65, 108, 512} {
		for trial := 0; trial < 300; trial++ {
			r, oracle := newRotorState(tor, n), newFifoRotor(tor, n)
			peer := rng.Intn(n)
			// Occupancy shapes: empty, skipped destinations only, one VOQ,
			// sparse, dense.
			var dsts []int
			switch shape := trial % 5; shape {
			case 1:
				dsts = []int{peer, tor.id, peer}
			case 2:
				dsts = []int{rng.Intn(n)}
			case 3, 4:
				fill := 1 + rng.Intn(4)
				if shape == 4 {
					fill = n + rng.Intn(2*n)
				}
				for i := 0; i < fill; i++ {
					dsts = append(dsts, rng.Intn(n))
				}
			}
			for _, dst := range dsts {
				seq++
				wire := wireLens[rng.Intn(len(wireLens))]
				r.pushLocal(dataPkt(net, flows[dst], seq, wire))
				oracle.pushLocal(dataPkt(net, flows[dst], seq, wire))
			}
			if trial%7 == 0 {
				seq++
				r.pushNonlocal(dataPkt(net, flows[peer], seq, net.F.MTU))
				oracle.pushNonlocal(dataPkt(net, flows[peer], seq, net.F.MTU))
			}
			r.rr = rng.Intn(n)
			oracle.rr = r.rr
			checkLocalSet(t, r)

			// Drain: every selection must agree, across peers and budgets,
			// until both sides are empty or stuck the same way.
			for step := 0; step < 4*n+8; step++ {
				budget := budgets[rng.Intn(len(budgets))]
				if step%3 == 0 {
					budget = fitsAll
				}
				rr := oracle.rr
				got := r.selectPacket(peer, budget, 0)
				want := oracle.selectPacketLinear(peer, budget, 0)
				sameRotorPick(t, "bitset walk against linear scan", got, want)
				if r.rr != oracle.rr || r.localPkts != oracle.localPkts || r.nonlocalPkts != oracle.nonlocalPkts {
					t.Fatalf("n=%d trial %d step %d (peer %d, rr %d, budget %d): state diverged: rr %d/%d local %d/%d nonlocal %d/%d",
						n, trial, step, peer, rr, budget, r.rr, oracle.rr, r.localPkts, oracle.localPkts, r.nonlocalPkts, oracle.nonlocalPkts)
				}
				checkLocalSet(t, r)
				if got == nil && budget == fitsAll {
					peer = rng.Intn(n) // nothing more for this peer; try another
				}
			}
		}
	}
}

// The record VOQ against the pointer-fifo VOQ it replaced, side by side over
// random pushes, picks and credit waits: the same packets come out in the same
// order, and every count the fabric reads — bytes per destination, the
// nonlocal total the backlog board publishes, the occupancy bitset, which
// waiters wake and when — stays equal after every step. Scattered, no two
// packets could share a record; in runs, bursts are consecutive segments of
// two flows per destination (segmenter), so most pushes extend a run, picks
// shorten runs that later pushes extend again, and every break a run must
// respect turns up.
func TestRotorRecordsMatchFifoVOQ(t *testing.T) {
	for _, runs := range []bool{false, true} {
		matchFifoVOQ(t, runs)
	}
}

func matchFifoVOQ(t *testing.T, runs bool) {
	net, flows := rotorNet512(t)
	net.Rotor.LocalCapBytes = 4 * 1500
	net.Rotor.NonlocalCapBytes = 8 * 1500
	tor := net.ToRs[0]
	mtu := net.serdelayUp(net.F.MTU)
	budgets := []sim.Time{fitsAll, fitsAll, noTime, mtu, mtu - 1}
	wireLens := []int{net.F.MTU, net.F.MTU, HeaderBytes, 700}
	rng := rand.New(rand.NewSource(19))
	// Two segmenters per destination: its flow, and a second flow to the same
	// ToR whose segments interleave with the first's.
	segs := make([][2]*segmenter, len(flows))
	for dst, f := range flows {
		g := NewFlow(int64(len(flows)+dst), 2, dst, 1<<40, 0)
		net.RegisterFlow(g)
		g.RotorClass = true
		segs[dst] = [2]*segmenter{{f: f, mss: 1436, sentAt: 1}, {f: g, mss: 1436, sentAt: 1}}
	}
	where := fmt.Sprintf("record VOQ against fifo VOQ (runs %v)", runs)
	var seq int64
	left, pushes, merged := 0, 0, 0
	for _, n := range []int{5, 64, 65, 108, 512} {
		r, o := newRotorState(tor, n), newFifoRotor(tor, n)
		var woke, wokeOracle []int64
		// The slice-0 board slot, read by picks made with abs = 1: some peers
		// over the indirection cap, most under it.
		for peer := 0; peer < n; peer++ {
			net.rotorSnap[peer] = int64(rng.Intn(3)) * 6 * 1500
		}
		push := func(local bool) {
			dst := rng.Intn(n)
			q := &r.nonlocal
			if local {
				q = &r.local
			}
			for burst := 1 + rng.Intn(4); burst > 0; burst-- {
				a := new(Packet)
				if runs {
					segs[dst][rng.Intn(8)/7].next(net, rng, a)
				} else {
					seq++
					wire := wireLens[rng.Intn(len(wireLens))]
					*a = *dataPkt(net, flows[dst], seq, wire)
					a.TorHops, a.Bucket, a.SentAt, a.ECNCapable = rng.Intn(3), rng.Intn(8), sim.Time(seq*7), seq%2 == 0
				}
				b := new(Packet)
				*b = *a
				before := 0
				if *q != nil {
					before = records(&(*q)[dst])
				}
				if local {
					r.pushLocal(a)
					o.pushLocal(b)
				} else {
					r.pushNonlocal(a)
					o.pushNonlocal(b)
				}
				if pushes++; records(&(*q)[dst]) == before {
					merged++
				}
			}
		}
		pick := func() {
			peer, budget, abs := rng.Intn(n), budgets[rng.Intn(len(budgets))], int64(rng.Intn(2))
			sameRotorPick(t, where, r.selectPacket(peer, budget, abs), o.selectPacket(peer, budget, abs))
		}
		steps := 6000
		for step := 0; step < 2*steps; step++ {
			switch op := rng.Intn(10); {
			case step >= steps: // drain what the random walk left
				pick()
			case op < 2:
				push(true)
			case op == 2:
				push(false)
			case op == 3:
				dst, id := rng.Intn(n), int64(step)
				r.alloc()
				o.alloc()
				r.waiters[dst] = append(r.waiters[dst], rotorWaiter{fn: func() { woke = append(woke, id) }})
				o.waiters[dst] = append(o.waiters[dst], rotorWaiter{fn: func() { wokeOracle = append(wokeOracle, id) }})
			default:
				pick()
			}
			sameRotorState(t, where, r, o)
			if !reflect.DeepEqual(woke, wokeOracle) {
				t.Fatalf("%s: n=%d step %d: waiters woken %v, oracle %v", where, n, step, woke, wokeOracle)
			}
			if r.local != nil {
				checkLocalSet(t, r)
			}
		}
		if len(woke) == 0 {
			t.Fatalf("%s: n=%d: no credit waiter ever woke; the walk does not exercise creditLocal", where, n)
		}
		left += r.localPkts + r.nonlocalPkts
	}
	// Whatever the walks stranded (a pick never indirects to the peer or to
	// the ToR itself) is still on the ledger, and nothing else is.
	if _, _, _, parked := net.PoolStats(); parked != uint64(left) {
		t.Fatalf("ledger counts %d parked packets, the VOQs hold %d", parked, left)
	}
	if runs && merged*2 < pushes || !runs && merged != 0 {
		t.Fatalf("%s: %d of %d pushes extended a run", where, merged, pushes)
	}
}

// The occupancy bitset is derived state: a checkpoint does not carry it, and
// restore must rebuild it from the decoded VOQs (an unset bit would hide a
// queued packet from the indirect hop forever).
func TestRotorRestoreRebuildsOccupancy(t *testing.T) {
	src := rotorNet(t)
	r := src.ToRs[0].rotor
	for i, dst := range []int{3, 9, 9, 15} {
		r.pushLocal(rotorPkt(src, int64(i), dst))
	}
	r.pushNonlocal(rotorPkt(src, 99, 4))
	r.rr = 10

	dst := rotorNet(t)
	if err := snapshotInto(t, src, dst); err != nil {
		t.Fatal(err)
	}
	got := dst.ToRs[0].rotor
	checkLocalSet(t, got)
	if got.localPkts != 4 || got.nonlocalPkts != 1 || got.rr != 10 || got.totalNonlocal != 1500 {
		t.Fatalf("restored accounting: local %d nonlocal %d rr %d totalNonlocal %d",
			got.localPkts, got.nonlocalPkts, got.rr, got.totalNonlocal)
	}
	// Indirect via peer 5, from rr=10: 15, then wrap to 3, then 9 twice.
	for i, want := range []int{15, 3, 9, 9} {
		p := got.selectPacket(5, fitsAll, 0)
		if p == nil || p.DstToR != want {
			t.Fatalf("pick %d after restore: %v, want a packet for ToR %d", i, p, want)
		}
	}
	if got.selectPacket(5, fitsAll, 0) != nil {
		t.Fatal("local VOQs should be empty")
	}
	// ToRs that held nothing stay unallocated.
	if dst.ToRs[1].rotor.local != nil {
		t.Fatal("restore allocated VOQ arrays for an idle ToR")
	}
}

// snapshotInto checkpoints src through a real file and restores it onto dst,
// a freshly built network of the same configuration, after registering src's
// flows with it as a resume's workload regeneration would (a VOQ record names
// its flow by dense index).
func snapshotInto(t *testing.T, src, dst *Network) error {
	t.Helper()
	adoptFlows(src, dst)
	w := checkpoint.NewWriter()
	if err := src.Snapshot(w); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return dst.RestoreFrom(f, nil)
}

// adoptFlows registers with dst a copy of each flow of src it does not have
// yet, in src's order, so both name every flow by the same dense index.
func adoptFlows(src, dst *Network) {
	for _, f := range src.flowList[len(dst.flowList):] {
		cp := NewFlow(f.ID, f.SrcHost, f.DstHost, f.Size, f.Arrival)
		dst.RegisterFlow(cp)
		cp.RotorClass = f.RotorClass
	}
}

// repark puts a packet selectPacket returned back at the tail of its local
// VOQ without pushLocal's pump kicks, so a benchmark loop holds occupancy
// where it set it.
func repark(r *rotorState, p *Packet) {
	r.alloc()
	r.addLocal(p.DstToR, r.tor.net.record(p))
	r.tor.dom.release(p)
}

// rotorBench108 is a rotorState of the paper's fabric size on a ToR whose own
// rotor is off (nothing drains behind the benchmark's back), with one
// registered rotor-class flow per destination.
func rotorBench108(b *testing.B) (*Network, *rotorState, []*Flow) {
	cfg := topo.PaperDefault()
	f := topo.MustFabric(cfg, "round-robin", 1)
	net := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
	net.Start()
	tor := net.ToRs[0]
	tor.rotor = nil
	flows := make([]*Flow, cfg.NumToRs)
	for dst := range flows {
		flows[dst] = NewFlow(int64(dst), 0, dst*cfg.HostsPerToR, 1<<40, 0)
		net.RegisterFlow(flows[dst])
		flows[dst].RotorClass = true
	}
	return net, newRotorState(tor, cfg.NumToRs), flows
}

// BenchmarkRotorSelectIndirect108 times the indirect-hop choice at the
// paper's fabric size with a handful of occupied VOQs out of 108 — the state
// the datamining108-rotor uplink pumps probe on every wakeup.
func BenchmarkRotorSelectIndirect108(b *testing.B) {
	net, r, flows := rotorBench108(b)
	for i := 0; i < 4; i++ {
		r.pushLocal(dataPkt(net, flows[20+25*i], 0, net.F.MTU))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Put it back so occupancy stays at four VOQs.
		repark(r, r.selectPacket(1+i%7, fitsAll, 0))
	}
}

// BenchmarkRotorParkUnpark times one trip through a VOQ — a packet reduced to
// its record and released, the head record rebuilt from the pool — behind a
// 100 k-record backlog, the order of a datamining108-rotor ToR's at the run's
// peak. Steady state allocates nothing: the chunk a push needs is one a pop
// returned.
func BenchmarkRotorParkUnpark(b *testing.B) {
	net, r, flows := rotorBench108(b)
	const backlog = 100_000
	for i := 0; i < backlog; i++ {
		repark(r, dataPkt(net, flows[1+i%107], int64(i)*1436, net.F.MTU))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repark(r, r.selectPacket(1+i%107, fitsAll, 0))
	}
}
