// Checkpoint orchestration (DESIGN.md §15): the harness decides when to
// snapshot (segmented serial runs, coordinator globals on the sharded
// engine), what identifies a checkpoint (configKey), and how a resume
// rebuilds the model — attach every flow cold, replay the recorded state
// and events into it, re-arm the coordinator-side chains the snapshot
// cannot capture — falling back to a clean cold run on any validation
// failure.
package harness

import (
	"fmt"
	"hash/fnv"
	"strings"

	"ucmp/internal/checkpoint"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// configKey renders every SimConfig field that shapes simulation state into
// a string: it names the checkpoint file and is stored inside it, so a
// resume under a different configuration is rejected instead of silently
// diverging. Checkpointing knobs themselves are excluded — snapshots are
// bit-identical regardless of when (or whether) they are taken, so changing
// the cadence between crash and resume is legal.
func configKey(cfg SimConfig, flows []*netsim.Flow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo=%+v sched=%q routing=%q transport=%q alpha=%v relax=%v ",
		cfg.Topo, cfg.ScheduleKind, cfg.Routing, cfg.Transport, cfg.Alpha, cfg.Relax)
	fmt.Fprintf(&b, "wl=%q load=%v maxsize=%d dur=%d horizon=%d sample=%d seed=%d ",
		cfg.Workload, cfg.Load, cfg.MaxFlowSize, cfg.Duration, cfg.Horizon, cfg.SampleEvery, cfg.Seed)
	fmt.Fprintf(&b, "afs=%v pin=%q maxpar=%d cong=%v cthr=%d hot=%v ",
		cfg.AccurateFlowSize, cfg.PinPolicy, cfg.MaxParallel,
		cfg.CongestionAware, cfg.CongestionThreshold, cfg.Hotspot)
	fmt.Fprintf(&b, "failfrac=%v shards=%d ", cfg.LinkFailFrac, cfg.Shards)
	if !cfg.Failures.Empty() {
		fmt.Fprintf(&b, "failures=%+v ", cfg.Failures.Events())
	}
	// The workload is regenerated deterministically from the fields above;
	// explicitly provided flows are digested so a different hand-built list
	// cannot restore against this state.
	if cfg.Flows != nil {
		h := fnv.New64a()
		for _, f := range flows {
			fmt.Fprintf(h, "%d/%d/%d/%d/%d/%v/%v;", f.ID, f.SrcHost, f.DstHost, f.Size, f.Arrival, f.Priority, f.Child)
		}
		fmt.Fprintf(&b, "flows=%d:%016x ", len(flows), h.Sum64())
	}
	return b.String()
}

// writeCheckpoint snapshots the full simulation into the configuration's
// checkpoint file, atomically replacing the previous snapshot. Failures
// (full disk, read-only directory, an unserializable model) are counted and
// the first is kept for Result.ResumeNote — losing a checkpoint must never
// kill the run it protects. The run's one Writer is reset and refilled each
// time, so a checkpoint allocates about nothing once the largest so far has
// been written.
func (st *simState) writeCheckpoint(key string) {
	if st.ckpt == nil {
		st.ckpt = checkpoint.NewWriter()
	}
	w := st.ckpt
	w.Reset()
	w.Section("config").Str(key)
	err := st.net.Snapshot(w)
	if err == nil {
		err = st.stack.Snapshot(w)
	}
	if err == nil {
		st.col.Snapshot(w)
		err = w.Save(checkpoint.FileName(st.cfg.CheckpointDir, key))
	}
	if err != nil {
		if st.ckptFails == 0 {
			st.ckptErr = err
		}
		st.ckptFails++
	}
}

// armCheckpoints schedules the sharded checkpoint chain: one coordinator
// global per CheckpointEvery multiple. Globals run between windows with all
// workers parked, so the snapshot — after draining the mailboxes — sees a
// consistent fabric without perturbing the run.
func (st *simState) armCheckpoints(key string) {
	every := st.cfg.CheckpointEvery
	var arm func(t sim.Time)
	arm = func(t sim.Time) {
		st.sh.Global(t, func() {
			st.writeCheckpoint(key)
			if next := t + every; next < st.horizon {
				arm(next)
			}
		})
	}
	if first := (st.sh.GlobalNow()/every + 1) * every; first < st.horizon {
		arm(first)
	}
}

// restoreCheckpoint loads the configuration's checkpoint into a simState
// built with forRestore=true and returns the restored instant. On error the
// network is partially mutated and undefined: the caller must discard this
// simState and build a fresh one for a cold run.
func (st *simState) restoreCheckpoint() (sim.Time, error) {
	key := configKey(st.cfg, st.flows)
	f, err := checkpoint.Load(checkpoint.FileName(st.cfg.CheckpointDir, key))
	if err != nil {
		return 0, err
	}
	cd, err := f.Section("config")
	if err != nil {
		return 0, err
	}
	if k := cd.Str(); k != key || cd.Err() != nil {
		return 0, fmt.Errorf("checkpoint: config key mismatch (file %.60q..., want %.60q...)", k, key)
	}
	// Event replay dispatch: netsim hands foreign kinds here; the sampling
	// tick belongs to the collector, everything else to the transport.
	var sampler netsim.RestoreExt
	if st.cfg.SampleEvery > 0 && !st.sharded {
		sampler = st.col.SamplingRestorer(st.net, st.cfg.SampleEvery, st.horizon)
	}
	ext := func(eng *sim.Engine, at sim.Time, tag sim.EventTag, timer, armed bool, deadline sim.Time) error {
		if tag.Kind == checkpoint.KindSample {
			if sampler == nil {
				return fmt.Errorf("checkpoint: sampling tick recorded but sampling is off")
			}
			return sampler(eng, at, tag, timer, armed, deadline)
		}
		return st.stack.RestoreEvent(eng, at, tag, timer, armed, deadline)
	}
	if err := st.net.RestoreFrom(f, ext); err != nil {
		return 0, err
	}
	if err := st.stack.RestoreState(f); err != nil {
		return 0, err
	}
	if err := st.col.RestoreState(f); err != nil {
		return 0, err
	}
	if err := st.stack.ReparkRotorWaiters(); err != nil {
		return 0, err
	}
	if st.sharded {
		// Coordinator globals are not part of any domain's event queue, so
		// the sampling chain is re-derived rather than replayed; the further
		// checkpoint chain is re-armed by run().
		if st.cfg.SampleEvery > 0 {
			st.col.ResumeSamplingSharded(st.net, st.sh, st.cfg.SampleEvery, st.horizon)
		}
		return st.sh.GlobalNow(), nil
	}
	return st.eng.Now(), nil
}
