package harness

import (
	"os"
	"runtime"
	"testing"

	"ucmp/internal/checkpoint"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// TestCheckpointingIsPureRead: writing checkpoints leaves the run exactly as
// it was — the fingerprint and every scheduler counter (cascades, pending
// high-water, dead pops, chases) of a checkpointing run are a plain run's.
// Serial only: on the sharded engine a checkpoint is a coordinator global,
// which splits a window, and cascades follow the window edges.
func TestCheckpointingIsPureRead(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.NDP, "websearch")
	cfg.Duration = sim.Millisecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = midSlice(cfg.Topo.SliceDuration)
	ck, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(cfg.CheckpointDir); err != nil || len(ents) != 1 {
		t.Fatalf("want one checkpoint file, got %v (%v)", ents, err)
	}
	if got, want := ckptFingerprint(t, ck), ckptFingerprint(t, plain); got != want {
		t.Fatal("checkpointing perturbed the run")
	}
	if ck.Sched != plain.Sched {
		t.Fatalf("checkpointing moved the scheduler counters:\n checkpointing %+v\n plain         %+v", ck.Sched, plain.Sched)
	}
	if plain.Sched.Cascades == 0 {
		t.Fatal("the wheel never cascaded: nothing was compared")
	}
}

// TestCheckpointAllocatesWhatItWrites: once a run has written its first
// checkpoint, each further one allocates less than one encoder block plus 5%
// of the file it writes — the run's Writer, its blocks, the descriptor
// buffer and the event scratch are reused, and nothing is copied whole.
func TestCheckpointAllocatesWhatItWrites(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.NDP, "websearch")
	cfg.Duration = sim.Millisecond
	cfg.CheckpointDir = t.TempDir()
	st, err := (*Runner)(nil).buildSim(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	key := configKey(cfg, st.flows)
	path := checkpoint.FileName(cfg.CheckpointDir, key)
	every := 100 * sim.Microsecond
	var ms runtime.MemStats
	for i, t0 := 0, every; t0 < cfg.Duration; i, t0 = i+1, t0+every {
		st.eng.Run(t0)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		st.writeCheckpoint(key)
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc - before
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		limit := 64<<10 + uint64(info.Size())/20
		t.Logf("checkpoint %d at %v: %d bytes written, %d allocated", i, t0, info.Size(), alloc)
		if i > 0 && alloc >= limit {
			t.Errorf("checkpoint %d at %v allocated %d bytes for a %d-byte file (limit %d)", i, t0, alloc, info.Size(), limit)
		}
	}
}
