package netsim

import (
	"fmt"
	"slices"

	"ucmp/internal/checkpoint"
)

// Test-only windows into unexported state for the external test package
// (netsim_test), which may import routing and transport where this package's
// own tests cannot.

// NICRing reports a host NIC's round-robin ring as flow IDs (-1 for the anon
// band) and its scan position.
func (n *Network) NICRing(host int) (ring []int64, rr int) {
	hp := n.Hosts[host].port
	for _, f := range hp.ring {
		id := int64(-1)
		if f != nil {
			id = f.ID
		}
		ring = append(ring, id)
	}
	return ring, hp.rr
}

// TapHostArrivals calls fn for every packet a ToR receives from a local host
// NIC, before the ToR handles it.
func (n *Network) TapHostArrivals(fn func(tor int, p *Packet)) {
	for _, t := range n.ToRs {
		t, recv := t, t.recvHostFn
		t.recvHostFn = func(a any) {
			fn(t.id, a.(*Packet))
			recv(a)
		}
	}
}

// CalendarBacklog reports the number of data packets parked right now at a
// ToR for the calendar queue a planned hop would use.
func (n *Network) CalendarBacklog(tor int, hop PlannedHop) int {
	c := n.F.CyclicSlice(hop.AbsSlice)
	sw := n.F.Sched.SwitchFor(c, tor, hop.To)
	if sw < 0 {
		return 1 << 30
	}
	if q := n.ToRs[tor].up[sw].slot(c); q != nil {
		return q.DataLen()
	}
	return 0
}

// CalendarPoolCheck verifies the calendar free lists of a network at
// quiescence: no slot is live, every queue ever made is back on its domain's
// list, as many were made as were ever live at once, and a recycled queue
// carries nothing of its last use — no byte count, no packet pointer anywhere
// in its fifos' backing arrays.
func (n *Network) CalendarPoolCheck() error {
	for _, d := range n.doms {
		pool := &d.cals
		if pool.live != 0 || uint64(len(pool.free)) != pool.made || pool.made != pool.peak {
			return fmt.Errorf("domain %d: %d calendar slots live, %d queues free, %d made, peak %d live",
				d.id, pool.live, len(pool.free), pool.made, pool.peak)
		}
		for _, q := range pool.free {
			if q.Len() != 0 || q.dataBytes != 0 {
				return fmt.Errorf("domain %d: a free calendar queue holds %d packets, %d data bytes", d.id, q.Len(), q.dataBytes)
			}
			for _, f := range []*fifo{&q.high, &q.low} {
				for _, p := range f.items[:cap(f.items)] {
					if p != nil {
						return fmt.Errorf("domain %d: a free calendar queue still points at a packet (seq %d)", d.id, p.Seq)
					}
				}
			}
		}
	}
	for _, t := range n.ToRs {
		for _, u := range t.up {
			if len(u.cal) != 0 {
				return fmt.Errorf("ToR %d port %d: %d calendar slots at quiescence", t.id, u.sw, len(u.cal))
			}
		}
	}
	return nil
}

// EncodeBoards writes the network's "boards" checkpoint section with the
// board encoder, or with encodeBoardsByHand when byHand is set.
func (n *Network) EncodeBoards(e *checkpoint.Encoder, byHand bool) {
	if byHand {
		encodeBoardsByHand(e, n.rotorBoard.ring)
	} else {
		n.encodeBoards(e)
	}
}

// DecodeBoards restores a "boards" section onto the network.
func (n *Network) DecodeBoards(d *checkpoint.Decoder) error { return n.decodeBoards(d) }

// BoardRing returns a copy of the rotor board's ring (nil when it is off).
func (n *Network) BoardRing() []int64 { return slices.Clone(n.rotorBoard.ring) }
