package netsim

import (
	"fmt"
	"math"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
)

// voqRec is a run of RotorLB data packets while they wait in a ToR VOQ: what
// the packets carry that their Flow does not. A parked rotor-class packet has
// no route, no reroute state and no fault stamp, so the rest of a Packet is
// either constant (Type is Data, the routing fields are zero) or derived from
// the flow and the record (the four host/ToR addresses, WireLen) — record
// refuses any packet of which that is not true. The flow is its dense index,
// so a record holds no pointer and the collector never looks inside a chunk.
//
// The run is n consecutive segments of the flow that differ only in Seq and
// payload: packet i has Seq seq+i·mss and payload mss, except the last, whose
// payload is last. A host hands a flow's unsent bytes to its NIC as one run,
// all stamped with one SentAt, so most pushes extend the tail record.
//
// linkSrc/linkSeq are dropped on purpose: they order same-instant circuit
// arrivals in ToR.flushIngress, which has run by the time a packet parks,
// and the uplink pump restamps them on the next transmission.
type voqRec struct {
	seq     int64 // the head packet's
	sentAt  sim.Time
	flow    uint32 // dense index
	n       uint32 // packets in the run
	mss     uint16 // payload of every packet but the last
	last    uint16 // payload of the last packet
	bucket  uint16
	torHops uint8
	flags   uint8
}

const (
	recECNCapable uint8 = 1 << iota
	recECNMarked
	recTrimmed
)

// payload is the head packet's PayloadLen.
func (rec *voqRec) payload() int {
	if rec.n == 1 {
		return int(rec.last)
	}
	return int(rec.mss)
}

// wireLen is the head packet's WireLen: a trimmed header, or the payload
// behind a full one.
func (rec *voqRec) wireLen() int {
	if rec.flags&recTrimmed != 0 {
		return HeaderBytes
	}
	return rec.payload() + HeaderBytes
}

// head is the run's head packet as a one-packet record.
func (rec *voqRec) head() voqRec {
	h := *rec
	h.n, h.mss = 1, uint16(rec.payload())
	h.last = h.mss
	return h
}

// continuedBy reports whether next, a one-packet record, is the packet that
// follows the last of rec's run: the same flow, send instant, bucket, hops
// and flags, at the byte after a full last segment, and no longer than one.
func (rec *voqRec) continuedBy(next *voqRec) bool {
	return next.flow == rec.flow && next.sentAt == rec.sentAt && next.bucket == rec.bucket &&
		next.torHops == rec.torHops && next.flags == rec.flags &&
		rec.last == rec.mss && next.last <= rec.mss &&
		next.seq == rec.seq+int64(rec.n)*int64(rec.mss) && rec.n < math.MaxUint32
}

// refuse panics naming the field that keeps p out of a record. The check is
// always on, not a PoisonPackets assertion: a record that dropped state
// would resume as a different packet.
func refuse(p *Packet, field string, v any) {
	panic(fmt.Sprintf("netsim: rotor VOQ record cannot hold packet (seq=%d) with %s = %v", p.Seq, field, v))
}

// record reduces p to a one-packet record, or panics when p carries anything
// a record cannot hold.
func (n *Network) record(p *Packet) voqRec {
	f := p.Flow
	switch {
	case f == nil:
		refuse(p, "Flow", nil)
	case f.dense < 0 || f.dense >= len(n.flowList) || n.flowList[f.dense] != f:
		refuse(p, "Flow", fmt.Sprintf("flow %d, not registered with this network", f.ID))
	case int64(f.dense) > math.MaxUint32:
		refuse(p, "Flow dense index", f.dense)
	case p.Type != Data:
		refuse(p, "Type", p.Type)
	case len(p.Route) != 0:
		refuse(p, "Route", p.Route)
	case p.RouteIdx != 0:
		refuse(p, "RouteIdx", p.RouteIdx)
	case p.Rerouted != 0:
		refuse(p, "Rerouted", p.Rerouted)
	case p.WasRerouted:
		refuse(p, "WasRerouted", true)
	case p.FaultAt != 0:
		refuse(p, "FaultAt", p.FaultAt)
	case p.RecoveredVia != RecoveryPrimary:
		refuse(p, "RecoveredVia", p.RecoveredVia)
	case p.EchoECN:
		refuse(p, "EchoECN", true)
	case p.SrcHost != f.SrcHost:
		refuse(p, "SrcHost", p.SrcHost)
	case p.DstHost != f.DstHost:
		refuse(p, "DstHost", p.DstHost)
	case p.SrcToR != f.srcToR:
		refuse(p, "SrcToR", p.SrcToR)
	case p.DstToR != f.dstToR:
		refuse(p, "DstToR", p.DstToR)
	case p.PayloadLen < 0 || p.PayloadLen > math.MaxUint16:
		refuse(p, "PayloadLen", p.PayloadLen)
	case p.Trimmed && p.WireLen != HeaderBytes, !p.Trimmed && p.WireLen != p.PayloadLen+HeaderBytes:
		refuse(p, "WireLen", p.WireLen)
	case p.Bucket < 0 || p.Bucket > math.MaxUint16:
		refuse(p, "Bucket", p.Bucket)
	case p.TorHops < 0 || p.TorHops > math.MaxUint8:
		refuse(p, "TorHops", p.TorHops)
	}
	rec := voqRec{
		seq: p.Seq, sentAt: p.SentAt, flow: uint32(f.dense), n: 1,
		mss: uint16(p.PayloadLen), last: uint16(p.PayloadLen),
		bucket: uint16(p.Bucket), torHops: uint8(p.TorHops),
	}
	if p.ECNCapable {
		rec.flags |= recECNCapable
	}
	if p.ECNMarked {
		rec.flags |= recECNMarked
	}
	if p.Trimmed {
		rec.flags |= recTrimmed
	}
	return rec
}

// rebuild fills p, fresh from a pool, with the head packet of rec's run.
func (n *Network) rebuild(rec *voqRec, p *Packet) {
	f := n.flowList[rec.flow]
	p.Flow = f
	p.Type = Data
	p.Seq = rec.seq
	p.PayloadLen = rec.payload()
	p.WireLen = rec.wireLen()
	p.Bucket = int(rec.bucket)
	p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
	p.SrcToR, p.DstToR = f.srcToR, f.dstToR
	p.TorHops = int(rec.torHops)
	p.SentAt = rec.sentAt
	p.ECNCapable = rec.flags&recECNCapable != 0
	p.ECNMarked = rec.flags&recECNMarked != 0
	p.Trimmed = rec.flags&recTrimmed != 0
}

// encode writes a one-packet record in its own 28 bytes; a VOQ section of a
// checkpoint is a count and that many of these, not rebuilt packets.
func (rec *voqRec) encode(e *checkpoint.Encoder) {
	e.U32(rec.flow)
	e.I64(rec.seq)
	e.I64(int64(rec.sentAt))
	e.U32(uint32(rec.payload()))
	e.U32(uint32(rec.bucket) | uint32(rec.torHops)<<16 | uint32(rec.flags)<<24)
}

// decodeRec reads one record written by encode and checks what a restore can
// check of it alone: the flow exists, the payload fits, and the flag bits are
// ones record sets.
func (n *Network) decodeRec(dec *checkpoint.Decoder) (voqRec, error) {
	rec := voqRec{flow: dec.U32(), seq: dec.I64(), sentAt: sim.Time(dec.I64()), n: 1}
	payload := dec.U32()
	w := dec.U32()
	rec.bucket, rec.torHops, rec.flags = uint16(w), uint8(w>>16), uint8(w>>24)
	if err := dec.Err(); err != nil {
		return rec, err
	}
	if int64(rec.flow) >= int64(len(n.flowList)) {
		return rec, fmt.Errorf("checkpoint: rotor VOQ record references unknown flow dense index %d", rec.flow)
	}
	if payload > math.MaxUint16 {
		return rec, fmt.Errorf("checkpoint: rotor VOQ record with payload %d", payload)
	}
	rec.mss, rec.last = uint16(payload), uint16(payload)
	if rec.flags&^(recECNCapable|recECNMarked|recTrimmed) != 0 {
		return rec, fmt.Errorf("checkpoint: rotor VOQ record with unknown flag bits %#x", rec.flags)
	}
	return rec, nil
}

// voqChunkRecs is how many records one chunk holds. Eight keeps a chunk under
// 320 bytes, so a VOQ holding a single record costs no more than the packet
// and fifo slot it replaced — there are N² VOQs, most of them short.
const voqChunkRecs = 8

// voqChunk is the unit VOQ storage is drawn and returned in. next comes
// first: it is the chunk's only pointer, so the collector's scan of a chunk
// ends after one word.
type voqChunk struct {
	next *voqChunk
	recs [voqChunkRecs]voqRec
}

// voqPool is a domain's free list of chunks, owned as its packetPool is: a
// VOQ belongs to a ToR and a ToR to one domain, so chunks never cross a
// barrier and the list needs no lock. Chunks are never given back to the
// heap: chunks is both how many were allocated and the domain's high-water
// mark of chunks in use.
type voqPool struct {
	free   *voqChunk
	chunks uint64

	// parked counts the packets in the domain's VOQs; peak is its high-water
	// mark.
	parked, peak uint64
}

func (pool *voqPool) get() *voqChunk {
	c := pool.free
	if c == nil {
		pool.chunks++
		return &voqChunk{}
	}
	pool.free, c.next = c.next, nil
	return c
}

// put takes back a drained chunk. pop zeroed every record it removed, so the
// chunk carries nothing of its last use into its next.
func (pool *voqPool) put(c *voqChunk) {
	c.next = pool.free
	pool.free = c
}

// voq is one RotorLB virtual output queue: a first-in first-out list of
// runs in chunks. hi indexes the head record in the head chunk, ti the next
// free slot in the tail chunk, n counts packets. The zero value is an empty
// queue that holds no chunk.
type voq struct {
	head, tail *voqChunk
	hi, ti     uint8
	n          int32
}

func (q *voq) len() int { return int(q.n) }

// push appends rec, a one-packet record: it extends the tail run when it
// continues it, and takes a slot of its own otherwise.
func (q *voq) push(pool *voqPool, rec voqRec) {
	q.n++
	if pool.parked++; pool.parked > pool.peak {
		pool.peak = pool.parked
	}
	if q.tail != nil {
		if t := &q.tail.recs[q.ti-1]; t.continuedBy(&rec) {
			t.n++
			t.last = rec.last
			return
		}
	}
	if q.tail == nil || q.ti == voqChunkRecs {
		c := pool.get()
		if q.tail == nil {
			q.head, q.hi = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.ti = c, 0
	}
	q.tail.recs[q.ti] = rec
	q.ti++
}

// front returns the head run of a non-empty queue, in place; its payload,
// wireLen and rebuild read the head packet.
func (q *voq) front() *voqRec { return &q.head.recs[q.hi] }

// pop removes the head packet of a non-empty queue: it shortens the head run,
// or removes the record when that was its last packet and returns the chunk
// to the pool once the chunk is drained.
func (q *voq) pop(pool *voqPool) {
	q.n--
	pool.parked--
	c := q.head
	if rec := &c.recs[q.hi]; rec.n > 1 {
		rec.seq += int64(rec.mss)
		rec.n--
		return
	}
	c.recs[q.hi] = voqRec{}
	q.hi++
	switch {
	case q.n == 0:
		*q = voq{}
	case q.hi == voqChunkRecs:
		q.head, q.hi = c.next, 0
	default:
		return
	}
	pool.put(c)
}

// each calls fn on every packet, head first, as a one-packet record: what a
// checkpoint holds is the queue's packets, however they were merged.
func (q *voq) each(fn func(rec *voqRec)) {
	i := int(q.hi)
	for c := q.head; c != nil; c = c.next {
		end := voqChunkRecs
		if c == q.tail {
			end = int(q.ti)
		}
		for ; i < end; i++ {
			for run := c.recs[i]; run.n > 0; run.n-- {
				h := run.head()
				fn(&h)
				run.seq += int64(run.mss)
			}
		}
		i = 0
	}
}
