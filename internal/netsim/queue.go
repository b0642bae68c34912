package netsim

// Queue is a two-band FIFO with a byte/packet bound on the data band.
// Control packets (ACKs, NACKs, pulls, trimmed headers) use the high band,
// which is drained first and sized generously — mirroring the strict
// priority given to control traffic in NDP and in the paper's Tofino2
// implementation.
type Queue struct {
	// MaxDataPackets bounds the data band (the paper: 300 MTU for DCTCP,
	// 80 MTU for NDP). Zero means unbounded.
	MaxDataPackets int
	// ECNThreshold marks CE on enqueue when the data band holds at least
	// this many packets (65 for DCTCP). Zero disables marking.
	ECNThreshold int
	// Trim converts an overflowing data packet into a trimmed header on the
	// high band instead of dropping it (NDP).
	Trim bool

	high, low fifo
	dataBytes int64
}

type fifo struct {
	items []*Packet
	head  int
}

// fifoKeepCap is the largest backing array a drained fifo keeps for its next
// burst. It sits above what the bounded port queues reach (a 300-packet band
// grows to 512 slots), so those recycle their storage as before; an unbounded
// queue that one burst grew past it — a whole flow staged in its NIC queue —
// gives the array back instead of pinning the high-water mark until exit.
const fifoKeepCap = 512

func (f *fifo) push(p *Packet) { f.items = append(f.items, p) }
func (f *fifo) pop() *Packet {
	if f.head >= len(f.items) {
		return nil
	}
	p := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	if f.head == len(f.items) {
		// Drained: rewind so the next burst reuses the same backing array.
		if cap(f.items) > fifoKeepCap {
			f.items = nil
		} else {
			f.items = f.items[:0]
		}
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:]) // the moved pointers' old slots: nothing outside [head, len) points at a packet
		f.items = f.items[:n]
		f.head = 0
	}
	return p
}
func (f *fifo) len() int { return len(f.items) - f.head }

// dataCount counts Type==Data packets in the fifo. Trimmed data packets ride
// high-priority bands but remain data for the conservation ledger.
func (f *fifo) dataCount() int {
	c := 0
	for _, p := range f.items[f.head:] {
		if p != nil && p.Type == Data {
			c++
		}
	}
	return c
}

// Enqueue adds a packet, applying ECN marking, trimming, or drop policy.
// It reports whether the packet (possibly trimmed) was accepted.
func (q *Queue) Enqueue(p *Packet) bool {
	if p.IsControl() {
		q.high.push(p)
		return true
	}
	if q.MaxDataPackets > 0 && q.low.len() >= q.MaxDataPackets {
		if q.Trim {
			p.Trimmed = true
			p.WireLen = HeaderBytes
			q.high.push(p)
			return true
		}
		return false
	}
	if q.ECNThreshold > 0 && p.ECNCapable && q.low.len() >= q.ECNThreshold {
		p.ECNMarked = true
	}
	q.dataBytes += int64(p.WireLen)
	q.low.push(p)
	return true
}

// Dequeue removes the next packet: high band first.
func (q *Queue) Dequeue() *Packet {
	if p := q.high.pop(); p != nil {
		return p
	}
	p := q.low.pop()
	if p != nil {
		q.dataBytes -= int64(p.WireLen)
	}
	return p
}

// Peek returns the next packet without removing it.
func (q *Queue) Peek() *Packet {
	if q.high.len() > 0 {
		return q.high.items[q.high.head]
	}
	if q.low.len() > 0 {
		return q.low.items[q.low.head]
	}
	return nil
}

// Len returns the number of queued packets across both bands.
func (q *Queue) Len() int { return q.high.len() + q.low.len() }

// DataLen returns the number of queued data packets.
func (q *Queue) DataLen() int { return q.low.len() }

// DataBytes returns the bytes held in the data band.
func (q *Queue) DataBytes() int64 { return q.dataBytes }

// countData counts Type==Data packets across both bands (trimmed data sits
// in the high band).
func (q *Queue) countData() int { return q.high.dataCount() + q.low.dataCount() }
