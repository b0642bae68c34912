package netsim_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/core"
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

// TestBoardsCheckpointOracle: the one board encoder writes the "boards"
// section byte for byte as the two hand-written encoders it replaced did, on
// a scaled congestion-aware UCMP run (both boards on, the congestion one
// holding calendar backlogs) and on a VLB + rotor run (the rotor one holding
// VOQ backlogs); decoding it onto a fresh network restores both rings
// exactly, and a truncated section fails with an error naming the board.
func TestBoardsCheckpointOracle(t *testing.T) {
	fab := topo.MustFabric(topo.Scaled(), "round-robin", 1)
	ucmp := routing.NewUCMP(core.BuildPathSet(fab, 0.5))
	wire := func(router netsim.Router, tk transport.Kind, congestion bool) func() (*sim.Engine, *netsim.Network, *transport.Stack) {
		return func() (*sim.Engine, *netsim.Network, *transport.Stack) {
			eng := sim.NewEngine()
			qs := transport.QueueSpec(tk)
			net := netsim.New(eng, fab, router, qs, qs, netsim.DefaultRotor())
			if congestion {
				net.EnableCongestionBoard()
				ucmp.Backlog = net.CongestionBacklog
				ucmp.CongestionThreshold = 2
				net.Stamper = ucmp.StampBucket
			}
			net.Start()
			return eng, net, transport.NewStack(net, tk)
		}
	}
	// Every host of racks 1..15 sends to rack 0, so calendar queues and VOQs
	// hold packets at slice boundaries.
	incast := func() []*netsim.Flow {
		var fl []*netsim.Flow
		for h := fab.HostsPerToR; h < fab.NumHosts(); h++ {
			fl = append(fl, netsim.NewFlow(int64(h), h, h%fab.HostsPerToR, 4<<20, 0))
		}
		return fl
	}
	cases := []struct {
		name       string
		build      func() (*sim.Engine, *netsim.Network, *transport.Stack)
		congestion bool
	}{
		{"ucmp-congestion", wire(ucmp, transport.DCTCP, true), true},
		{"vlb-rotor", wire(routing.NewVLB(fab), transport.Rotor, false), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, image := boardsImage(t, tc.build, incast(), 10*fab.SliceDuration+fab.SliceDuration/3)
			rotor, cong := net.BoardRings()
			if rotor == nil || (cong != nil) != tc.congestion {
				t.Fatalf("rotor board on %v, congestion board on %v", rotor != nil, cong != nil)
			}
			live := slices.ContainsFunc(rotor, func(v int64) bool { return v != 0 })
			if tc.congestion {
				live = slices.ContainsFunc(cong, func(v int32) bool { return v != 0 })
			}
			if !live {
				t.Fatal("the board under test holds only zeros: nothing was compared")
			}

			d := loadBoards(t, image, func(e *checkpoint.Encoder) { net.EncodeBoards(e, true) })
			var body []byte
			for b := d.U8(); d.Err() == nil; b = d.U8() {
				body = append(body, b)
			}

			_, fresh, _ := tc.build()
			if err := fresh.DecodeBoards(loadBoards(t, image, func(e *checkpoint.Encoder) { net.EncodeBoards(e, false) })); err != nil {
				t.Fatal(err)
			}
			gotRotor, gotCong := fresh.BoardRings()
			if !slices.Equal(gotRotor, rotor) || !slices.Equal(gotCong, cong) {
				t.Fatal("decoded rings differ from the encoded ones")
			}

			_, cut, _ := tc.build()
			err := cut.DecodeBoards(loadBoards(t, nil, func(e *checkpoint.Encoder) {
				for _, b := range body[:len(body)-3] {
					e.U8(b)
				}
			}))
			last := "rotor"
			if tc.congestion {
				last = "congestion"
			}
			if err == nil || !strings.Contains(err.Error(), last+" board") || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("truncated section decoded with error %v, want a truncation naming the %s board", err, last)
			}
		})
	}
}
