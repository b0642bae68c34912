package switchres

import (
	"testing"

	"ucmp/internal/topo"
)

func TestComputePaperScale(t *testing.T) {
	fab := topo.MustFabric(topo.PaperDefault(), "round-robin", 1)
	u := ComputeExact(fab, 0.5)
	if u.QueuesPerPort != 18 {
		t.Fatalf("queues/port %d, want 18 (Table 2, (108,6))", u.QueuesPerPort)
	}
	if u.Buckets < 5 || u.Buckets > 64 {
		t.Fatalf("buckets %d outside DSCP-feasible range", u.Buckets)
	}
	// Paper: 9.5K entries; accept the right order of magnitude.
	if u.PackedEntriesPerToR < 2_000 || u.PackedEntriesPerToR > 40_000 {
		t.Fatalf("entries/ToR %d implausible", u.PackedEntriesPerToR)
	}
	if u.PackedEntriesPerToR > u.NaiveEntriesPerToR {
		t.Fatalf("collapsed entries %d above naive %d", u.PackedEntriesPerToR, u.NaiveEntriesPerToR)
	}
	if u.PackedSRAMPct <= 0 || u.PackedSRAMPct > 5 {
		t.Fatalf("SRAM%% %v implausible", u.PackedSRAMPct)
	}
}

// Table 2's scaling claim: resources grow slowly as (N, d) scale together.
func TestResourceScalingTrend(t *testing.T) {
	small := computeFor(t, 64, 4)
	big := computeFor(t, 128, 8)
	if big.QueuesPerPort < small.QueuesPerPort {
		t.Fatalf("queues/port shrank: %d -> %d", small.QueuesPerPort, big.QueuesPerPort)
	}
	// Queues/port ~ N/d stays in the same ballpark (18 -> 27 in the paper).
	if big.QueuesPerPort > 4*small.QueuesPerPort {
		t.Fatalf("queues/port exploded: %d -> %d", small.QueuesPerPort, big.QueuesPerPort)
	}
	if big.PackedEntriesPerToR <= small.PackedEntriesPerToR {
		t.Fatalf("entries did not grow: %d -> %d", small.PackedEntriesPerToR, big.PackedEntriesPerToR)
	}
	if big.PackedSRAMBytes <= small.PackedSRAMBytes {
		t.Fatalf("SRAM bytes did not grow: %d -> %d", small.PackedSRAMBytes, big.PackedSRAMBytes)
	}
	// Buckets grow slowly (27 -> 34 in the paper), staying under 64.
	if big.Buckets > 64 {
		t.Fatalf("buckets %d exceed DSCP budget", big.Buckets)
	}
}

func computeFor(t *testing.T, n, d int) Usage {
	t.Helper()
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks, cfg.HostsPerToR = n, d, d
	fab := topo.MustFabric(cfg, "round-robin", 1)
	return ComputeExact(fab, 0.5)
}

// TestComputeExactSymmetric: on a rotation-symmetric fabric the compiled-
// table columns are filled and collapse never grows the table.
func TestComputeExactSymmetric(t *testing.T) {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = 64, 4
	fab := topo.MustFabric(cfg, "round-robin", 1)
	if !fab.Sched.Rotation() {
		t.Fatal("(64,4) should be rotation-symmetric")
	}
	u := ComputeExact(fab, 0.5)
	if u.NaiveEntriesPerToR != (fab.Sched.N-1)*fab.Sched.S*u.Buckets {
		t.Fatalf("naive entries %d, want %d", u.NaiveEntriesPerToR, (fab.Sched.N-1)*fab.Sched.S*u.Buckets)
	}
	if u.PackedEntriesPerToR <= 0 || u.PackedEntriesPerToR > u.NaiveEntriesPerToR {
		t.Fatalf("packed entries %d outside (0, %d]", u.PackedEntriesPerToR, u.NaiveEntriesPerToR)
	}
	// Each group needs at least one row per starting slice and destination.
	if min := (fab.Sched.N - 1) * fab.Sched.S; u.PackedEntriesPerToR < min {
		t.Fatalf("packed entries %d below the %d-row floor", u.PackedEntriesPerToR, min)
	}
	if u.PackedSRAMBytes <= 0 || u.PackedSRAMPct <= 0 {
		t.Fatalf("packed SRAM not filled: %d bytes, %.3f%%", u.PackedSRAMBytes, u.PackedSRAMPct)
	}
}
