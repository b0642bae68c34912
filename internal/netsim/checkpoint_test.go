package netsim

import (
	"strings"
	"testing"
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

func fillNICs(n *Network, flows []*Flow) {
	for _, fl := range flows {
		for i := 0; i < 3; i++ {
			n.Hosts[fl.SrcHost].Send(&Packet{Flow: fl, Type: Data, Seq: int64(i) * 1436, PayloadLen: 1436, WireLen: 1500})
		}
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
