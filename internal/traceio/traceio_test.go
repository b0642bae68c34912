package traceio

import (
	"bytes"
	"strings"
	"testing"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	flows := []*netsim.Flow{
		netsim.NewFlow(2, 1, 5, 1000, 20*sim.Microsecond),
		netsim.NewFlow(1, 0, 3, 500, 10*sim.Microsecond),
	}
	var buf bytes.Buffer
	if err := WriteFlows(&buf, flows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d flows", len(got))
	}
	// Sorted by arrival on read.
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("order: %d, %d", got[0].ID, got[1].ID)
	}
	if got[0].Size != 500 || got[0].Arrival != 10*sim.Microsecond || got[0].DstHost != 3 {
		t.Fatalf("fields lost: %+v", got[0])
	}
	// Hashes are re-derived deterministically.
	if got[0].Hash != netsim.NewFlow(1, 0, 3, 500, 0).Hash {
		t.Fatal("hash not deterministic")
	}
}

// badTraces are flow traces ReadFlows must refuse.
var badTraces = []string{
	"id,src_host,dst_host,size_bytes,arrival_ns\n1,0,3,abc,0\n",
	"1,0,3,0,0\n",    // zero size
	"1,0,3,100,-5\n", // negative arrival
	"1,0,3,100\n",    // wrong field count
}

func TestReadFlowsErrors(t *testing.T) {
	for i, c := range badTraces {
		if _, err := ReadFlows(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Header-only is fine and empty.
	got, err := ReadFlows(strings.NewReader("id,src_host,dst_host,size_bytes,arrival_ns\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("header-only: %v, %d flows", err, len(got))
	}
}

func TestWriteFCTs(t *testing.T) {
	done := netsim.NewFlow(1, 0, 3, 500, 10)
	done.Finished = true
	done.FinishedAt = 1010
	pending := netsim.NewFlow(2, 1, 4, 900, 0)
	child := netsim.NewFlow(3, 1, 4, 100, 0)
	child.Child = true
	var buf bytes.Buffer
	if err := WriteFCTs(&buf, []*netsim.Flow{pending, done, child}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows (child skipped)
		t.Fatalf("lines: %v", lines)
	}
	if !strings.Contains(lines[1], "1,0,3,500,10,1000,true") {
		t.Fatalf("finished row wrong: %s", lines[1])
	}
	if !strings.Contains(lines[2], "2,1,4,900,0,-1,false") {
		t.Fatalf("pending row wrong: %s", lines[2])
	}
}

// FuzzReadFlows: on any input ReadFlows returns without panicking; every
// flow it accepts has a positive size and a non-negative arrival, in
// ascending arrival order; and what it accepts survives WriteFlows and a
// second ReadFlows with ids, hosts, sizes and arrivals unchanged.
func FuzzReadFlows(f *testing.F) {
	for _, c := range badTraces {
		f.Add(c)
	}
	f.Add("id,src_host,dst_host,size_bytes,arrival_ns\n")
	f.Add("id,src_host,dst_host,size_bytes,arrival_ns\n2,1,5,1000,20000\n1,0,3,500,10000\n")
	f.Add("7, 4, 9, 1, 0\n3,-1,999,65536,5\n")
	f.Fuzz(func(t *testing.T, in string) {
		flows, err := ReadFlows(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, fl := range flows {
			if fl.Size <= 0 || fl.Arrival < 0 {
				t.Fatalf("accepted flow %d with size %d, arrival %d", fl.ID, fl.Size, fl.Arrival)
			}
			if i > 0 && fl.Arrival < flows[i-1].Arrival {
				t.Fatalf("arrival %d after %d", fl.Arrival, flows[i-1].Arrival)
			}
		}
		var buf bytes.Buffer
		if err := WriteFlows(&buf, flows); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFlows(&buf)
		if err != nil {
			t.Fatalf("written trace refused: %v", err)
		}
		if len(again) != len(flows) {
			t.Fatalf("%d flows read back, wrote %d", len(again), len(flows))
		}
		for i, a := range again {
			b := flows[i]
			if a.ID != b.ID || a.SrcHost != b.SrcHost || a.DstHost != b.DstHost || a.Size != b.Size || a.Arrival != b.Arrival {
				t.Fatalf("flow %d read back as %+v, wrote %+v", i, a, b)
			}
		}
	})
}
