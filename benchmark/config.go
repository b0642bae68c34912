package main

import (
	"fmt"
	"time"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// spec is a workload's generated input. Packet workloads run Sim through
// harness.Run; the offline workload builds and validates a compiled table on
// Topo. The program under test sees only these values, never the seed's
// provenance.
type spec struct {
	Offline bool
	Seed    int64
	Topo    topo.Config       // offline only
	Sim     harness.SimConfig // packet workloads
	Warm    bool              // fabric cache + checkpoints (set up by withDirs)
	// Segment is the traced run's loop span width: the horizon in 40 equal
	// parts, which the checkpoint interval must be a multiple of.
	Segment sim.Time
}

const (
	scalePaper = "paper"
	scaleTiny  = "tiny"
)

// roundsFor is how many rounds a full set runs: five give every timing row
// quartiles, and the unit test needs only the plumbing.
func roundsFor(scale string) int {
	if scale == scaleTiny {
		return 1
	}
	return 5
}

// probeTimeFor is how long a run keeps probing set-up. A set-up of a few
// tens of milliseconds is little more than a process start, whose time
// jitters by a quarter from one start to the next; its median over the forty
// starts that fit in a second holds still where a median over five does not.
func probeTimeFor(scale string) time.Duration {
	if scale == scaleTiny {
		return 0
	}
	return time.Second
}

// specFor generates the workload's input from the seed. Scale "tiny" swaps
// every fabric for a 16-ToR one so the whole driver runs in a unit test;
// the numbers it prints mean nothing.
func specFor(workload, scale string, seed int64) (spec, error) {
	if scale != scalePaper && scale != scaleTiny {
		return spec{}, fmt.Errorf("unknown scale %q", scale)
	}
	tiny := scale == scaleTiny
	fabric := topo.PaperDefault()
	duration := sim.Millisecond
	if tiny {
		fabric = topo.Scaled()
		duration = 200 * sim.Microsecond
	}
	base := harness.SimConfig{
		Topo:        fabric,
		Alpha:       0.5,
		Load:        0.4,
		MaxFlowSize: 64 << 20,
		Duration:    duration,
		Horizon:     4 * duration,
		SampleEvery: duration / 2,
		Seed:        seed,
	}
	s := spec{Seed: seed}
	switch workload {
	case "websearch108":
		base.Routing, base.Transport, base.Workload = harness.UCMP, transport.DCTCP, "websearch"
		s.Sim = base
	case "datamining108-rotor":
		base.Routing, base.Transport, base.Workload = harness.VLB, transport.Rotor, "datamining"
		// Most data-mining bytes sit in a few dozen flows at the size cap;
		// at 64 MB their count swings run time and memory by 15% from seed
		// to seed. Capping at 4 MB over half the arrival window keeps the
		// offered load and steadies both to a few percent.
		base.MaxFlowSize = 4 << 20
		base.Duration = duration / 2
		base.Horizon = 2 * duration
		base.SampleEvery = duration / 4
		s.Sim = base
	case "offline324":
		s.Offline = true
		s.Topo = fabric
		if !tiny {
			s.Topo.NumToRs, s.Topo.Uplinks = 324, 12
		}
		return s, nil
	case "warm512":
		// Rotation symmetry (and with it the fabric cache) needs a
		// power-of-two ToR count and an even uplink count of at least 4.
		base.Topo.NumToRs, base.Topo.Uplinks, base.Topo.HostsPerToR = 512, 8, 2
		if tiny {
			base.Topo.NumToRs, base.Topo.Uplinks = 16, 4
		}
		base.Routing, base.Transport, base.Workload = harness.UCMP, transport.NDP, "websearch"
		base.Duration = duration / 2
		base.Horizon = 2 * duration
		s.Sim = base
		s.Warm = true
	default:
		return spec{}, fmt.Errorf("unknown workload %q", workload)
	}
	s.Segment = s.Sim.Horizon / 40
	return s, nil
}

// withDirs points a warm workload at its scratch cache and checkpoint
// directories; other workloads use neither.
func (s spec) withDirs(cacheDir, ckptDir string) spec {
	if s.Warm {
		s.Sim.FabricCacheDir = cacheDir
		s.Sim.CheckpointDir = ckptDir
		s.Sim.CheckpointEvery = s.Sim.Horizon / 4
	}
	return s
}

// work is the numerator of work_per_wall_s: data packets delivered for a
// packet workload, compiled table rows for the offline one. Packets, not
// simulated time: their count follows the seed's flow sizes the way run time
// does, so the ratio holds steady across seeds, and a design that needs
// fewer events per packet shows as a gain.
func (s spec) work(r childResult) float64 {
	if s.Offline {
		return float64(r.TableRows)
	}
	return float64(r.DataPkts)
}
