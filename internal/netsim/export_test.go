package netsim

import "fmt"

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
