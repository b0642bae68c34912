package netsim

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// selectPacketLinear is selectPacket as it stood before the occupancy
// bitset — the indirect hop found by scanning all N local VOQs from rr — kept
// verbatim as the oracle the bitset walk is checked against. It never reads
// or writes localSet.
func (r *rotorState) selectPacketLinear(peer int, budget sim.Time, abs int64) *Packet {
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

// clone deep-copies the queue state (packets stay shared, so the two copies
// can be compared by pointer).
func (r *rotorState) clone() *rotorState {
	c := *r
	cloneFifos := func(in []fifo) []fifo {
		out := make([]fifo, len(in))
		for i := range in {
			out[i] = fifo{items: append([]*Packet(nil), in[i].items...), head: in[i].head}
		}
		return out
	}
	c.local, c.nonlocal = cloneFifos(r.local), cloneFifos(r.nonlocal)
	c.localBytes = append([]int64(nil), r.localBytes...)
	c.nonlocalBytes = append([]int64(nil), r.nonlocalBytes...)
	c.localSet = append([]uint64(nil), r.localSet...)
	c.waiters = make([][]rotorWaiter, len(r.waiters))
	return &c
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

// rotorNet512 is a 512-ToR rotor network whose ToR 0 has no rotor of its own:
// a test attaches rotorStates of any size up to 512 to it, and the uplink
// pumps pushLocal kicks find nothing to drain behind the test's back.
func rotorNet512(t testing.TB) *Network {
	t.Helper()
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = 512, 8, 1
	f := topo.MustFabric(cfg, "round-robin", 1)
	n := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
	n.Start()
	n.ToRs[0].rotor = nil
	return n
}

// The bitset walk must choose exactly what the linear scan chose: same
// packet, same rr afterwards, for every occupancy, rr, peer and budget —
// including sizes that are not a multiple of 64, all-empty, and occupancy
// only at the destinations the indirect hop skips (peer and self).
func TestRotorIndirectMatchesLinearScan(t *testing.T) {
	net := rotorNet512(t)
	tor := net.ToRs[0]
	mtu := net.serdelayUp(net.F.MTU)
	budgets := []sim.Time{fitsAll, noTime, mtu, mtu - 1}
	wireLens := []int{net.F.MTU, HeaderBytes, 700}
	rng := rand.New(rand.NewSource(16))
	var seq int64
	for _, n := range []int{5, 64, 65, 108, 512} {
		for trial := 0; trial < 300; trial++ {
			r := newRotorState(tor, n)
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
				r.pushLocal(&Packet{Type: Data, Seq: seq, WireLen: wireLens[rng.Intn(len(wireLens))], DstToR: dst})
			}
			if trial%7 == 0 {
				seq++
				r.pushNonlocal(&Packet{Type: Data, Seq: seq, WireLen: net.F.MTU, DstToR: peer})
			}
			r.rr = rng.Intn(n)
			checkLocalSet(t, r)
			oracle := r.clone()

			// Drain: every selection must agree, across peers and budgets,
			// until both sides are empty or stuck the same way.
			for step := 0; step < 4*n+8; step++ {
				budget := budgets[rng.Intn(len(budgets))]
				if step%3 == 0 {
					budget = fitsAll
				}
				got := r.selectPacket(peer, budget, 0)
				want := oracle.selectPacketLinear(peer, budget, 0)
				if got != want {
					t.Fatalf("n=%d trial %d step %d (peer %d, rr %d, budget %d): bitset picked %v, linear scan %v",
						n, trial, step, peer, oracle.rr, budget, got, want)
				}
				if r.rr != oracle.rr || r.localPkts != oracle.localPkts || r.nonlocalPkts != oracle.nonlocalPkts {
					t.Fatalf("n=%d trial %d step %d: state diverged: rr %d/%d local %d/%d nonlocal %d/%d",
						n, trial, step, r.rr, oracle.rr, r.localPkts, oracle.localPkts, r.nonlocalPkts, oracle.nonlocalPkts)
				}
				checkLocalSet(t, r)
				if got == nil && budget == fitsAll {
					peer = rng.Intn(n) // nothing more for this peer; try another
				}
			}
		}
	}
}

// The occupancy bitset is derived state: a checkpoint does not carry it, and
// restore must rebuild it from the decoded VOQs (an unset bit would hide a
// queued packet from the indirect hop forever).
func TestRotorRestoreRebuildsOccupancy(t *testing.T) {
	src := rotorNet(t)
	r := src.ToRs[0].rotor
	for i, dst := range []int{3, 9, 9, 15} {
		r.pushLocal(&Packet{Type: Data, Seq: int64(i), WireLen: 1500, DstToR: dst})
	}
	r.pushNonlocal(&Packet{Type: Data, Seq: 99, WireLen: 1500, DstToR: 4})
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
// a freshly built network of the same configuration.
func snapshotInto(t *testing.T, src, dst *Network) error {
	t.Helper()
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

// BenchmarkRotorSelectIndirect108 times the indirect-hop choice at the
// paper's fabric size with a handful of occupied VOQs out of 108 — the state
// the datamining108-rotor uplink pumps probe on every wakeup.
func BenchmarkRotorSelectIndirect108(b *testing.B) {
	cfg := topo.PaperDefault()
	f := topo.MustFabric(cfg, "round-robin", 1)
	net := New(sim.NewEngine(), f, stubRouter{f}, QueueSpec{MaxDataPackets: 300}, QueueSpec{MaxDataPackets: 300}, DefaultRotor())
	net.Start()
	tor := net.ToRs[0]
	tor.rotor = nil
	r := newRotorState(tor, cfg.NumToRs)
	pkts := make([]*Packet, 4)
	for i := range pkts {
		pkts[i] = &Packet{Type: Data, WireLen: cfg.MTU, DstToR: 20 + 25*i}
		r.pushLocal(pkts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.selectPacket(1+i%7, fitsAll, 0)
		// Put it back so occupancy stays at four VOQs.
		r.local[p.DstToR].push(p)
		r.localSet[p.DstToR>>6] |= 1 << (p.DstToR & 63)
		r.localBytes[p.DstToR] += int64(p.WireLen)
		r.localPkts++
	}
}
