package transport

import (
	"path/filepath"
	"strings"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// rotorNet is the 16-ToR fabric under VLB with a four-frame credit cap and no
// indirection, so a rack's VOQ stays over the cap between direct circuits.
func rotorNet(t *testing.T) (*sim.Engine, *netsim.Network, *Stack) {
	t.Helper()
	f := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	eng := sim.NewEngine()
	net := netsim.New(eng, f, routing.NewVLB(f), QueueSpec(DCTCP), QueueSpec(DCTCP),
		netsim.RotorConfig{Enabled: true, LocalCapBytes: 4 * 1500})
	net.Start()
	return eng, net, NewStack(net, DCTCP)
}

// A RotorLB sender with credit hands its NIC the whole flow at once — as a
// run, so almost none of its packets exist yet — and one without credit
// sends nothing until the ToR calls it back.
func TestRotorSenderStartsWholeOrParks(t *testing.T) {
	eng, net, stack := rotorNet(t)
	// Both hosts of rack 0 send to rack 8 from the start: twice what one
	// circuit drains, so the third flow finds the VOQ over the cap.
	f1 := netsim.NewFlow(1, 0, 17, 2_000_000, 0)
	f2 := netsim.NewFlow(2, 1, 16, 2_000_000, 0)
	f3 := netsim.NewFlow(3, 0, 16, 1_000_000, 20*sim.Microsecond)
	for _, f := range []*netsim.Flow{f1, f2, f3} {
		stack.Launch(f)
	}
	eng.Run(20 * sim.Microsecond)
	if s := f1.SenderEP.(*rotorSender); s.next != f1.Size || f1.BytesSent != f1.Size {
		t.Fatalf("flow 1 had credit at its start: cursor %d, BytesSent %d, want %d", s.next, f1.BytesSent, f1.Size)
	}
	if _, _, live, parked := net.PoolStats(); live+parked > 256 {
		t.Fatalf("%d packets exist 20 us into two %d-packet flows: the senders built their segments up front", live+parked, f1.Size/MSS)
	}
	if f3.BytesSent != 0 {
		t.Fatalf("flow 3 started with its rack's VOQ over the credit cap: BytesSent = %d", f3.BytesSent)
	}
	eng.Run(sim.Second)
	for _, f := range []*netsim.Flow{f1, f2, f3} {
		if !f.Finished || f.BytesSent != f.Size {
			t.Fatalf("flow %d unfinished: sent %d, delivered %d of %d", f.ID, f.BytesSent, f.BytesDelivered, f.Size)
		}
	}
}

// The sender's checkpoint cursor is how much of the flow it has handed over,
// which cannot lie outside the flow.
func TestRotorCursorValidatedOnRestore(t *testing.T) {
	for _, cursor := range []int64{-1, 2_000_001} {
		_, _, src := rotorNet(t)
		fl := netsim.NewFlow(1, 0, 17, 2_000_000, 0)
		src.Attach(fl)
		fl.SenderEP.(*rotorSender).next = cursor
		w := checkpoint.NewWriter()
		if err := src.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := w.Save(path); err != nil {
			t.Fatal(err)
		}
		file, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, dst := rotorNet(t)
		dst.Attach(netsim.NewFlow(1, 0, 17, 2_000_000, 0))
		if err := dst.RestoreState(file); err == nil || !strings.Contains(err.Error(), "rotor cursor") {
			t.Fatalf("cursor %d: restore error %v, want one naming the rotor cursor", cursor, err)
		}
	}
}
