package netsim_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// boardsImage runs a network to mid-run and returns it with its "boards"
// section written by the board encoder, as a whole checkpoint image.
func boardsImage(t *testing.T, build func() (*sim.Engine, *netsim.Network, *transport.Stack), flows []*netsim.Flow, until sim.Time) (*netsim.Network, []byte) {
	t.Helper()
	eng, net, stack := build()
	for _, f := range flows {
		stack.Launch(f)
	}
	eng.Run(until)
	w := checkpoint.NewWriter()
	net.EncodeBoards(w.Section("boards"), false)
	return net, w.Encode()
}

// loadBoards saves an image and loads its "boards" section back.
func loadBoards(t *testing.T, image []byte, body func(e *checkpoint.Encoder)) *checkpoint.Decoder {
	t.Helper()
	w := checkpoint.NewWriter()
	body(w.Section("boards"))
	path := filepath.Join(t.TempDir(), "boards")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	if image != nil {
		if got := w.Encode(); !bytes.Equal(got, image) {
			t.Fatal("re-encoded image differs")
		}
	}
	f, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Section("boards")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBoardsCheckpointOracle: the board encoder writes the "boards" section
// byte for byte as the hand-written encoder it replaced did, on a VLB +
// rotor run whose board holds VOQ backlogs; decoding it onto a fresh network
// restores the ring exactly, and a truncated section fails with an error
// naming the board.
func TestBoardsCheckpointOracle(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	build := func() (*sim.Engine, *netsim.Network, *transport.Stack) {
		eng := sim.NewEngine()
		qs := transport.QueueSpec(transport.Rotor)
		net := netsim.New(eng, fab, routing.NewVLB(fab), qs, qs, netsim.DefaultRotor())
		net.Start()
		return eng, net, transport.NewStack(net, transport.Rotor)
	}
	// Every host of racks 1..15 sends to rack 0, so VOQs hold packets at
	// slice boundaries.
	var incast []*netsim.Flow
	for h := fab.HostsPerToR; h < fab.NumHosts(); h++ {
		incast = append(incast, netsim.NewFlow(int64(h), h, h%fab.HostsPerToR, 4<<20, 0))
	}
	t.Run("vlb-rotor", func(t *testing.T) {
		net, image := boardsImage(t, build, incast, 10*fab.SliceDuration+fab.SliceDuration/3)
		rotor := net.BoardRing()
		if !slices.ContainsFunc(rotor, func(v int64) bool { return v != 0 }) {
			t.Fatal("the board holds only zeros: nothing was compared")
		}

		d := loadBoards(t, image, func(e *checkpoint.Encoder) { net.EncodeBoards(e, true) })
		var body []byte
		for b := d.U8(); d.Err() == nil; b = d.U8() {
			body = append(body, b)
		}

		_, fresh, _ := build()
		if err := fresh.DecodeBoards(loadBoards(t, image, func(e *checkpoint.Encoder) { net.EncodeBoards(e, false) })); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fresh.BoardRing(), rotor) {
			t.Fatal("the decoded ring differs from the encoded one")
		}

		_, cut, _ := build()
		err := cut.DecodeBoards(loadBoards(t, nil, func(e *checkpoint.Encoder) {
			for _, b := range body[:len(body)-3] {
				e.U8(b)
			}
		}))
		if err == nil || !strings.Contains(err.Error(), "rotor board") || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated section decoded with error %v, want a truncation naming the rotor board", err)
		}
	})
}
