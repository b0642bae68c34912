package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// nicNet builds a stub network with two flows sourced at host 0 and one at
// host 1, each with packets parked in its NIC queue.
func nicNet(t *testing.T) (*Network, []*Flow) {
	t.Helper()
	_, n := stubNet(t)
	flows := []*Flow{NewFlow(1, 0, 17, 1<<20, 0), NewFlow(2, 0, 18, 1<<20, 0), NewFlow(3, 1, 19, 1<<20, 0)}
	for _, fl := range flows {
		n.RegisterFlow(fl)
	}
	return n, flows
}

// fillNICs parks three packets in each flow's NIC queue and, behind them, a
// run for the rest of the flow.
func fillNICs(n *Network, flows []*Flow) {
	for _, fl := range flows {
		h := n.Hosts[fl.SrcHost]
		for i := 0; i < 3; i++ {
			h.Send(&Packet{Flow: fl, Type: Data, Seq: int64(i) * 1436, PayloadLen: 1436, WireLen: 1500})
		}
		h.SendRun(fl, 3*1436, fl.Size, 1436)
	}
}

// NIC queues live on their flows, so the NIC section of a checkpoint must
// round-trip through the ring alone — and a section that names a flow under
// a host that does not source it, or names one flow twice, must be refused:
// accepting it would splice two hosts' queues into one fifo. The container
// checksums cannot catch this (the bytes are well-formed), so the section is
// produced by snapshotting a network whose rings were tampered with.
func TestRestoreRejectsSplicedNICQueues(t *testing.T) {
	src, flows := nicNet(t)
	fillNICs(src, flows)
	dst, dflows := nicNet(t)
	if err := snapshotInto(t, src, dst); err != nil {
		t.Fatalf("clean snapshot refused: %v", err)
	}
	for i, fl := range flows {
		if got, want := dflows[i].nic.len(), fl.nic.len(); got != want || want == 0 {
			t.Fatalf("flow %d: restored NIC queue holds %d packets, source holds %d", fl.ID, got, want)
		}
		if got, want := dflows[i].run, fl.run; got != want || !want.pending() {
			t.Fatalf("flow %d: restored run %+v, source holds %+v", fl.ID, got, want)
		}
	}
	if got, want := dst.InFlightData(), src.InFlightData(); got != want {
		t.Fatalf("restored InFlightData %d, source %d", got, want)
	}
	if len(dst.Hosts[0].port.ring) != 2 || dst.Hosts[0].port.ring[0] != dflows[0] || dst.Hosts[0].port.ring[1] != dflows[1] {
		t.Fatalf("restored ring of host 0: %v", dst.Hosts[0].port.ring)
	}

	for _, tc := range []struct {
		name   string
		tamper func(n *Network, flows []*Flow)
		want   string
	}{
		{"foreign flow", func(n *Network, flows []*Flow) {
			hp := n.Hosts[0].port
			hp.ring = append(hp.ring, flows[2]) // host 1's flow on host 0's ring
		}, "host 0 NIC references flow 2, which host 1 sources"},
		{"same flow twice", func(n *Network, flows []*Flow) {
			hp := n.Hosts[0].port
			hp.ring = append(hp.ring, flows[1])
		}, "host 0 NIC queue for flow 1 recorded twice"},
		// A run record is only acceptable when it describes bytes of its own
		// flow still to be cut into segments.
		{"run next beyond end", func(n *Network, flows []*Flow) {
			flows[0].run.next = flows[0].run.end + 1
		}, "NIC run [1048577, 1048576)"},
		{"run without a segment size", func(n *Network, flows []*Flow) {
			flows[1].run.mss = 0
		}, "mss 0 does not fit flow 1"},
		{"run with a negative segment size", func(n *Network, flows []*Flow) {
			flows[1].run.mss = -1436
		}, "mss -1436 does not fit flow 1"},
		{"run beyond the flow", func(n *Network, flows []*Flow) {
			flows[2].run.end = flows[2].Size + 1
		}, "1048577) mss 1436 does not fit flow 2 of 1048576 bytes"},
		{"run from a negative offset", func(n *Network, flows []*Flow) {
			flows[2].run.next = -1436
		}, "NIC run [-1436, 1048576)"},
		{"run of a flow sourced elsewhere", func(n *Network, flows []*Flow) {
			// Host 1's flow, run and all, on host 0's ring in place of its own.
			n.Hosts[0].port.ring[1] = flows[2]
		}, "host 0 NIC references flow 2, which host 1 sources"},
	} {
		src, flows := nicNet(t)
		fillNICs(src, flows)
		tc.tamper(src, flows)
		dst, _ := nicNet(t)
		err := snapshotInto(t, src, dst)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// A packet sent behind a pending run waits for every segment of the run: the
// NIC builds them first, so the flow's queue stays first-in first-out.
func TestPacketBehindRunKeepsFIFO(t *testing.T) {
	eng, n := stubNet(t)
	fl := NewFlow(1, 0, 17, 10*1436+5, 0)
	n.RegisterFlow(fl)
	h := n.Hosts[0]
	var seqs []int64
	tor := n.ToRs[0]
	recv := tor.recvHostFn
	tor.recvHostFn = func(a any) {
		seqs = append(seqs, a.(*Packet).Seq)
		recv(a)
	}
	h.SendRun(fl, 0, fl.Size, 1436)
	if !fl.run.pending() || fl.nic.len() != 0 {
		t.Fatalf("after SendRun: run %+v, %d built packets queued; want the first on the wire and the rest a run", fl.run, fl.nic.len())
	}
	h.Send(&Packet{Flow: fl, Type: Data, Seq: 1 << 40, PayloadLen: 1436, WireLen: 1500})
	if fl.run.pending() || fl.nic.len() != 11 {
		t.Fatalf("after a packet behind the run: run %+v, %d packets queued; want the run built and 11 queued", fl.run, fl.nic.len())
	}
	if got := n.Counters.DataInjected; got != 12 {
		t.Fatalf("DataInjected = %d, want 12", got)
	}
	eng.Run(sim.Millisecond)
	want := []int64{0, 1436, 2 * 1436, 3 * 1436, 4 * 1436, 5 * 1436, 6 * 1436, 7 * 1436, 8 * 1436, 9 * 1436, 10 * 1436, 1 << 40}
	if !reflect.DeepEqual(seqs, want) {
		t.Fatalf("the flow's packets reached the ToR in order %v, want %v", seqs, want)
	}
}

// The sparse lists of the ports section name the queues they describe, and a
// restore takes an index only inside the list's range and above the one
// before it.
func TestSparseIndexValidation(t *testing.T) {
	w := checkpoint.NewWriter()
	enc := w.Section("idx")
	for _, v := range []int32{0, 3, 3, 2, 7, 8, -1} {
		enc.I32(v)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Section("idx")
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i, ok := range []bool{true, true, false, false, true, false, false} {
		got, err := sparseIndex(dec, prev, 8, "test queue")
		if (err == nil) != ok {
			t.Fatalf("index %d after %d of 8: err = %v, want accepted = %v", i, prev, err, ok)
		}
		if ok {
			prev = got
		}
	}
	if _, err := sparseIndex(dec, prev, 8, "test queue"); err == nil {
		t.Fatal("reading past the section's end was accepted")
	}
}

// Only calendar slots that exist are written — in slice order, whatever order
// the port's list took on — and they come back under their slices; a list
// naming a slice the schedule does not have is refused.
func TestSparsePortsRoundTrip(t *testing.T) {
	build := func(extra ...int) *Network {
		n := rotorNet(t)
		tor := n.ToRs[2]
		// Slots open out of slice order, and one is drained again: the list in
		// memory is [3, 1] and a queue sits on the free list.
		tor.up[1].slotFor(3).Enqueue(&Packet{Type: Ack, WireLen: HeaderBytes})
		tor.up[1].slotFor(4).Enqueue(&Packet{Type: Data, WireLen: 1500})
		tor.up[1].slotFor(1).Enqueue(&Packet{Type: Data, WireLen: 1500})
		tor.up[1].expire(4)
		tor.up[2].slotFor(0).Enqueue(&Packet{Type: Ack, WireLen: HeaderBytes})
		for _, c := range extra {
			tor.up[1].slotFor(c).Enqueue(&Packet{Type: Data, WireLen: 1500})
		}
		tor.rotor.pushNonlocal(rotorPkt(n, 1, 9))
		tor.rotor.pushNonlocal(rotorPkt(n, 2, 14))
		return n
	}
	src, dst := build(), rotorNet(t)
	if err := snapshotInto(t, src, dst); err != nil {
		t.Fatal(err)
	}
	got := dst.ToRs[2]
	if len(got.up[1].cal) != 2 || len(got.up[2].cal) != 1 || len(got.up[0].cal) != 0 || dst.doms[0].cals.live != 3 {
		t.Fatalf("restored slots: %d, %d and %d on ports 0-2, %d live in the domain; want 0, 2, 1 and 3",
			len(got.up[0].cal), len(got.up[1].cal), len(got.up[2].cal), dst.doms[0].cals.live)
	}
	if q := got.up[1].slot(1); q == nil || q.DataLen() != 1 {
		t.Fatalf("slice 1 of port 1 not restored with its data packet: %+v", q)
	}
	if q := got.up[1].slot(3); q == nil || q.Len() != 1 || q.DataLen() != 0 {
		t.Fatalf("slice 3 of port 1 not restored with its control packet: %+v", q)
	}
	if q := got.up[2].slot(0); q == nil || q.Len() != 1 {
		t.Fatalf("slice 0 of port 2 not restored: %+v", q)
	}
	if got.up[1].slot(4) != nil {
		t.Fatal("the drained slice 4 came back as a slot")
	}
	if got.rotor.nonlocal[9].len() != 1 || got.rotor.nonlocal[14].len() != 1 || got.rotor.nonlocalPkts != 2 {
		t.Fatalf("rotor VOQs not restored in place: %d packets", got.rotor.nonlocalPkts)
	}
	if want, got := src.InFlightData(), dst.InFlightData(); got != want || want != 3 {
		t.Fatalf("restored InFlightData %d, source %d, want 3", got, want)
	}

	S := src.F.Sched.S
	want := fmt.Sprintf("calendar queue index %d after 3, of %d", S, S)
	if err := snapshotInto(t, build(S), rotorNet(t)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of a slot for slice %d of %d: %v, want %q", S, S, err, want)
	}
	narrow := rotorNet(t)
	narrow.ToRs[2].rotor.n = 14
	if err := snapshotInto(t, build(), narrow); err == nil || !strings.Contains(err.Error(), "rotor destination index 14 after 9, of 14") {
		t.Fatalf("restore onto a rotor with 14 destinations: %v", err)
	}
}

// voqNet is a rotor network whose ToR 0 holds runs in two VOQs: locally
// sourced segments of flows to ToR 9 — a run, a short last segment, a second
// flow's run — and, in the nonlocal VOQ for ToR 14, indirect segments of a
// flow sourced at ToR 3. The flows are registered in a fixed order, so their
// dense indices are 0 (to ToR 9), 1 (to ToR 9), 2 (ToR 3 to ToR 14), 3 (to
// ToR 14) and 4 (ToR 3 to ToR 9).
func voqNet(t *testing.T) (*Network, []*Flow) {
	t.Helper()
	n := rotorNet(t)
	hpt := n.F.HostsPerToR
	flows := []*Flow{
		NewFlow(1, 0, 9*hpt, 1<<30, 0), NewFlow(2, 1, 9*hpt, 1<<30, 0), NewFlow(3, 3*hpt, 14*hpt, 1<<30, 0),
		NewFlow(4, 0, 14*hpt, 1<<30, 0), NewFlow(5, 3*hpt, 9*hpt, 1<<30, 0),
	}
	for _, fl := range flows {
		n.RegisterFlow(fl)
		fl.RotorClass = true
	}
	r := n.ToRs[0].rotor
	seg := func(fl *Flow, seq int64, payload int) *Packet {
		p := dataPkt(n, fl, seq, HeaderBytes+payload)
		p.SentAt = 7
		return p
	}
	for i := int64(0); i < 10; i++ {
		repark(r, seg(flows[0], 0x5eed000+i*1436, 1436))
	}
	repark(r, seg(flows[0], 0x5eed000+10*1436, 200))
	for i := int64(0); i < 5; i++ {
		repark(r, seg(flows[1], i*1436, 1436))
	}
	for i := int64(0); i < 6; i++ {
		p := seg(flows[2], i*1436, 1436)
		p.TorHops = 1
		r.pushNonlocal(p)
	}
	return n, flows
}

// A VOQ holding runs checkpoints as the packets it holds, one record each,
// and restores into runs again: encode, restore, encode gives the same bytes.
func TestVOQRunsCheckpointRoundTrip(t *testing.T) {
	src, _ := voqNet(t)
	if got := records(&src.ToRs[0].rotor.local[9]); got != 2 {
		t.Fatalf("source local VOQ for ToR 9 holds %d records, want 2 runs", got)
	}
	dst := coldRotorNet(t)
	if err := snapshotInto(t, src, dst); err != nil {
		t.Fatal(err)
	}
	r := dst.ToRs[0].rotor
	if r.local[9].len() != 16 || records(&r.local[9]) != 2 || r.nonlocal[14].len() != 6 || records(&r.nonlocal[14]) != 1 {
		t.Fatalf("restored VOQs: %d packets in %d records for ToR 9, %d in %d for ToR 14; want 16 in 2, 6 in 1",
			r.local[9].len(), records(&r.local[9]), r.nonlocal[14].len(), records(&r.nonlocal[14]))
	}
	image := func(n *Network) []byte {
		w := checkpoint.NewWriter()
		if err := n.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		return w.Encode()
	}
	if a, b := image(src), image(dst); !bytes.Equal(a, b) {
		t.Fatalf("encode → restore → encode of VOQ runs changed the checkpoint (%d bytes, then %d)", len(a), len(b))
	}
}

// A VOQ record must belong to the VOQ it is restored into: its flow goes to
// the VOQ's destination, and a local VOQ's flows are sourced at its ToR. A
// file that breaks either is well formed and checksums right, so it is made
// by swapping one record's dense index in a real checkpoint and re-sealing.
func TestRestoreRejectsMisplacedVOQRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		to   uint32
		want string
	}{
		{"another destination", 3, "ToR 0 rotor VOQ for ToR 9 holds flow 3, which goes to ToR 14"},
		{"sourced elsewhere", 4, "ToR 0 local rotor VOQ holds flow 4, which ToR 3 sources"},
	} {
		src, _ := voqNet(t)
		w := checkpoint.NewWriter()
		if err := src.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		img := w.Encode()
		// The first record of flow 0's run: u32 dense index, i64 seq.
		rec := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 0), 0x5eed000)
		at := bytes.Index(img, rec)
		if at < 0 || bytes.Index(img[at+1:], rec) >= 0 {
			t.Fatalf("%s: the record is not in the checkpoint exactly once", tc.name)
		}
		binary.LittleEndian.PutUint32(img[at:], tc.to)
		// Re-seal: the payload checksum, then the header checksum over it
		// (the container's FNV-1a variant).
		seal := func(b []byte) uint64 {
			sum := uint64(1469598103934665603)
			for _, c := range b {
				sum = (sum ^ uint64(c)) * 1099511628211
			}
			return sum
		}
		binary.LittleEndian.PutUint64(img[24:], seal(img[40:]))
		binary.LittleEndian.PutUint64(img[32:], seal(img[:32]))
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("%s: re-sealed checkpoint does not load: %v", tc.name, err)
		}
		dst := coldRotorNet(t)
		adoptFlows(src, dst)
		if err := dst.RestoreFrom(f, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
