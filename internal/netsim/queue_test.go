package netsim

import "testing"

func mkData(seq int64, wire int) *Packet {
	return &Packet{Type: Data, Seq: seq, WireLen: wire, PayloadLen: wire - HeaderBytes}
}

func TestQueueFIFOAndBands(t *testing.T) {
	q := &Queue{}
	q.Enqueue(mkData(0, 1500))
	q.Enqueue(&Packet{Type: Ack, Seq: 99, WireLen: HeaderBytes})
	q.Enqueue(mkData(1, 1500))
	// Control jumps the line.
	if p := q.Dequeue(); p.Type != Ack {
		t.Fatalf("control packet not prioritized, got %v", p.Type)
	}
	if p := q.Dequeue(); p.Seq != 0 {
		t.Fatalf("data not FIFO: seq %d", p.Seq)
	}
	if p := q.Dequeue(); p.Seq != 1 {
		t.Fatalf("data not FIFO: seq %d", p.Seq)
	}
	if q.Dequeue() != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := &Queue{MaxDataPackets: 2}
	if !q.Enqueue(mkData(0, 1500)) || !q.Enqueue(mkData(1, 1500)) {
		t.Fatal("accepting within bound failed")
	}
	if q.Enqueue(mkData(2, 1500)) {
		t.Fatal("overflow accepted")
	}
	if q.DataLen() != 2 {
		t.Fatalf("data band holds %d after the refusal, want 2", q.DataLen())
	}
	// Control still accepted when data band is full.
	if !q.Enqueue(&Packet{Type: Pull, WireLen: HeaderBytes}) {
		t.Fatal("control rejected")
	}
}

func TestQueueECNMarking(t *testing.T) {
	q := &Queue{ECNThreshold: 2}
	for i := 0; i < 4; i++ {
		p := mkData(int64(i), 1500)
		p.ECNCapable = true
		q.Enqueue(p)
	}
	marked := 0
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		if p.ECNMarked {
			marked++
		}
	}
	if marked != 2 {
		t.Fatalf("marked=%d, want 2 (packets 3 and 4 beyond threshold)", marked)
	}
	// Non-ECT packets are never marked.
	q2 := &Queue{ECNThreshold: 0}
	p := mkData(0, 1500)
	p.ECNCapable = true
	q2.Enqueue(p)
	if p.ECNMarked {
		t.Fatal("marking with disabled threshold")
	}
}

func TestQueueTrimming(t *testing.T) {
	q := &Queue{MaxDataPackets: 1, Trim: true}
	q.Enqueue(mkData(0, 1500))
	p := mkData(1, 1500)
	if !q.Enqueue(p) {
		t.Fatal("trim should accept the packet")
	}
	if !p.Trimmed || p.WireLen != HeaderBytes {
		t.Fatalf("packet not trimmed: %+v", p)
	}
	if q.DataLen() != 1 || q.Len() != 2 {
		t.Fatalf("trimmed header joined the data band: data %d of %d", q.DataLen(), q.Len())
	}
	// Trimmed header is delivered before the queued data packet.
	if got := q.Dequeue(); !got.Trimmed {
		t.Fatal("trimmed header should ride the priority band")
	}
}

func TestQueueBytesAccounting(t *testing.T) {
	q := &Queue{}
	q.Enqueue(mkData(0, 1000))
	q.Enqueue(mkData(1, 500))
	if q.DataBytes() != 1500 {
		t.Fatalf("bytes=%d", q.DataBytes())
	}
	q.Dequeue()
	if q.DataBytes() != 500 {
		t.Fatalf("bytes after dequeue=%d", q.DataBytes())
	}
	if q.DataLen() != 1 || q.Len() != 1 {
		t.Fatal("length accounting wrong")
	}
}

func TestFIFOCompaction(t *testing.T) {
	var f fifo
	for i := 0; i < 500; i++ {
		f.push(mkData(int64(i), 100))
	}
	for i := 0; i < 400; i++ {
		if p := f.pop(); p.Seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, p.Seq)
		}
	}
	for i := 500; i < 600; i++ {
		f.push(mkData(int64(i), 100))
	}
	for i := 400; i < 600; i++ {
		p := f.pop()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("pop %d returned %v", i, p)
		}
	}
	if f.pop() != nil {
		t.Fatal("fifo should be empty")
	}
}
