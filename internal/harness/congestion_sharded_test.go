package harness

import (
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// congestionCase is one DESIGN.md §13 differential scenario: congestion-aware UCMP
// planning against the slice-boundary backlog board must produce
// byte-identical results on the serial and sharded engines. mustSteer marks
// scenarios built to guarantee the steering actually engages, so the
// differential cannot pass vacuously with the congestion machinery idle.
type congestionCase struct {
	shardedCase
	mustSteer bool
}

func congestionCases() []congestionCase {
	// Incast onto ToR 0 from every other host on an 8-ToR fabric: a
	// different topology and deterministic flow set for the differential.
	// (DCTCP keeps the source calendars drained at boundaries here, so this
	// case exercises the engaged-check-but-no-steer path.)
	incastTopo := topo.Scaled()
	incastTopo.NumToRs = 8
	incastCfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	incastCfg.Workload = ""
	incastCfg.Topo = incastTopo
	incastCfg.CongestionAware = true
	incastCfg.CongestionThreshold = 2
	incastCfg.Horizon = 400 * sim.Millisecond
	incast := congestionCase{
		shardedCase: shardedCase{
			name: "congestion-incast8", cfg: incastCfg,
			flows: func() []*netsim.Flow {
				var flows []*netsim.Flow
				for h := incastTopo.HostsPerToR; h < incastTopo.NumHosts(); h++ {
					flows = append(flows, netsim.NewFlow(int64(h), h, 0, 128<<10, 0))
				}
				return flows
			},
		},
	}

	// Hotspot-skewed Poisson web search: overlapping randomized flows keep
	// calendar queues populated at boundaries, so with a low threshold the
	// steering is guaranteed to engage (thousands of steered picks).
	hot := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	hot.CongestionAware = true
	hot.CongestionThreshold = 2
	hot.Hotspot = 0.5
	hot.Load = 0.7
	hot.Duration = sim.Millisecond
	hot.Seed = 41

	// Runtime faults whose epochs land exactly on slice boundaries
	// (multiples of the 50µs Scaled slice): the boundary instant then
	// carries a board publication AND an epoch flip, and plans fed by both
	// must still agree byte for byte across engines.
	faulty := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	faulty.CongestionAware = true
	faulty.CongestionThreshold = 2
	faulty.Duration = sim.Millisecond
	faulty.Seed = 42
	faulty.Failures = failure.NewTimeline().
		LinkDown(200*sim.Microsecond, 3, 1).
		SwitchDown(400*sim.Microsecond, 2).
		SwitchUp(800*sim.Microsecond, 2).
		LinkUp(950*sim.Microsecond, 3, 1)

	return []congestionCase{
		incast,
		{shardedCase: shardedCase{name: "congestion-hotspot-poisson", cfg: hot}, mustSteer: true},
		{shardedCase: shardedCase{name: "congestion-failure-epochs", cfg: faulty}},
	}
}

// TestDifferentialCongestionSharded requires the sharded engine to
// reproduce serial congestion-aware runs byte for byte, across a dividing
// shard count, a non-dividing one, and one worker per ToR — and requires
// the steering to have engaged where the scenario guarantees it.
func TestDifferentialCongestionSharded(t *testing.T) {
	for _, tc := range congestionCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) *Result {
				cfg := tc.cfg
				cfg.Shards = shards
				if tc.flows != nil {
					cfg.Flows = tc.flows()
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if shards > 1 && !res.Sharded {
					t.Fatalf("Shards=%d did not run sharded (note %q)", shards, res.ShardNote)
				}
				return res
			}
			serialRes := run(0)
			if tc.mustSteer && serialRes.Counters.CongestionSteered == 0 {
				t.Fatal("congestion steering never engaged; the differential is vacuous")
			}
			serial := fingerprintCore(serialRes)
			for _, shards := range []int{2, 5, tc.cfg.Topo.NumToRs} { // 5 divides neither ToR count
				if got := fingerprintCore(run(shards)); got != serial {
					t.Fatalf("congestion-aware sharded(shards=%d) diverges from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
						shards, serial, got)
				}
			}
		})
	}
}

// TestCongestionSteeringChangesOutcome pins that the knob is live: the
// guaranteed-engagement scenario steers packets (CongestionSteered > 0) and
// its results differ from the identical config with steering off, while the
// steering-off run never increments the counter.
func TestCongestionSteeringChangesOutcome(t *testing.T) {
	var tc congestionCase
	for _, c := range congestionCases() {
		if c.mustSteer {
			tc = c
			break
		}
	}
	aware := tc.cfg
	awareRes, err := Run(aware)
	if err != nil {
		t.Fatal(err)
	}
	if awareRes.Counters.CongestionSteered == 0 {
		t.Fatal("congestion-aware hotspot run never steered")
	}

	unaware := tc.cfg
	unaware.CongestionAware = false
	unawareRes, err := Run(unaware)
	if err != nil {
		t.Fatal(err)
	}
	if unawareRes.Counters.CongestionSteered != 0 {
		t.Fatalf("steering-off run recorded %d steered packets", unawareRes.Counters.CongestionSteered)
	}
	if fingerprintCore(awareRes) == fingerprintCore(unawareRes) {
		t.Fatal("congestion-aware run is byte-identical to the unaware run; steering had no effect")
	}
}
