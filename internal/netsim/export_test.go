package netsim

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
