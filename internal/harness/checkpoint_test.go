package harness

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// ckptCase is one checkpoint/resume differential configuration.
type ckptCase struct {
	name  string
	cfg   SimConfig
	every func(slice sim.Time) sim.Time // checkpoint cadence from the slice length
	// pendingRuns requires the last checkpoint — the one a resume restores —
	// to find RotorLB flows in host NICs as runs of unbuilt segments and in
	// ToR VOQs as records.
	pendingRuns bool
}

// midSlice lands checkpoint instants strictly inside a slice; onBoundary
// lands them exactly on slice starts. Both must restore bit-identically.
// lateMidSlice takes one mid-slice checkpoint half way to the horizon, while
// the serial RotorLB case still has flows leaving their NICs.
func midSlice(slice sim.Time) sim.Time     { return 10*slice + slice/3 }
func onBoundary(slice sim.Time) sim.Time   { return 16 * slice }
func lateMidSlice(slice sim.Time) sim.Time { return 40*slice + slice/3 }

func ckptCases() []ckptCase {
	dctcp := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	ndp := ScaledConfig(UCMP, transport.NDP, "websearch")
	rotor := ScaledConfig(VLB, transport.Rotor, "datamining")

	failing := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	// A ToR dies before the checkpoint instants and never recovers: the
	// restored run must keep it dead (the failure schedule is re-derived
	// from time, not snapshotted).
	failing.Failures = failure.NewTimeline().TorDown(300*sim.Microsecond, 3)
	failing.SampleEvery = 200 * sim.Microsecond

	shardedCfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	shardedCfg.Shards = 4

	shardedRotor := ScaledConfig(VLB, transport.Rotor, "datamining")
	shardedRotor.Shards = 4
	shardedRotor.Failures = failure.NewTimeline().TorDown(300*sim.Microsecond, 5)
	shardedRotor.SampleEvery = 200 * sim.Microsecond

	cases := []ckptCase{
		{"serial-ucmp-dctcp-midslice", dctcp, midSlice, false},
		{"serial-ucmp-ndp-boundary", ndp, onBoundary, false},
		{"serial-vlb-rotor", rotor, lateMidSlice, true},
		{"serial-ucmp-dctcp-failure", failing, midSlice, false},
		{"sharded-ucmp-dctcp", shardedCfg, midSlice, false},
		{"sharded-vlb-rotor-failure", shardedRotor, onBoundary, true},
	}
	for i := range cases {
		cases[i].cfg.Duration = sim.Millisecond
		cases[i].cfg.Seed = int64(31 + i)
	}
	return cases
}

// withEvents is Fingerprint with the event count in front, for comparing
// two runs on one engine. Compare without it across engines: a sharded run
// executes one slice-boundary event per domain per slice where the serial
// run executes one total, so event counts legitimately differ while every
// simulation observable must not.
func withEvents(r *Result) string {
	return fmt.Sprintf("events=%d\n", r.Events) + Fingerprint(r)
}

// ckptFingerprint is Fingerprint — with the event count unless the run is
// sharded — plus the collector's samples and flow records, so restored metrics
// state is covered too.
func ckptFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	out := Fingerprint(r)
	if !r.Sharded {
		out = fmt.Sprintf("events=%d\n", r.Events) + out
	}
	out += "\nsamples:"
	for _, s := range r.Collector.Samples {
		out += fmt.Sprintf(" %d/%.12f/%.12f/%.12f/%.12f/%.12f",
			int64(s.At), s.TorToHostUtil, s.HostToTorUtil, s.TorToTorUtil, s.JainQueueIndex, s.JainLoadIndex)
	}
	out += "\nrecords:"
	for _, fr := range r.Collector.Flows {
		out += fmt.Sprintf(" %d:%d:%v:%v", fr.Size, int64(fr.FCT), fr.Rotor, fr.Priority)
	}
	return out
}

// TestDifferentialCheckpointResume is the headline guarantee: for serial
// and sharded engines, with and without an active failure timeline,
//
//	ckptFingerprint(run 0→T)
//	  == ckptFingerprint(run 0→T with checkpointing on)
//	  == ckptFingerprint(restore last checkpoint → run t→T)
func TestDifferentialCheckpointResume(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			every := tc.every(tc.cfg.Topo.SliceDuration)

			if tc.pendingRuns {
				requirePendingRuns(t, tc.cfg, every)
			}
			plain, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := ckptFingerprint(t, plain)
			if got := plain.EventKinds.Total(); got != plain.Events {
				t.Fatalf("EventKinds sum to %d, Events = %d", got, plain.Events)
			}

			ck := tc.cfg
			ck.CheckpointDir = dir
			ck.CheckpointEvery = every
			ckres, err := Run(ck)
			if err != nil {
				t.Fatal(err)
			}
			if got := ckptFingerprint(t, ckres); got != want {
				t.Fatalf("checkpointing perturbed the run:\n--- plain ---\n%s\n--- checkpointing ---\n%s", want, got)
			}

			rs := ck
			rs.Resume = true
			rsres, err := Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(rsres.ResumeNote, "resumed at") {
				t.Fatalf("expected a resume, got note %q", rsres.ResumeNote)
			}
			if got := ckptFingerprint(t, rsres); got != want {
				t.Fatalf("resume diverged:\n--- plain ---\n%s\n--- resumed ---\n%s", want, got)
			}
			// The per-kind counts ride in the checkpoint, so a resumed run
			// reports the whole run's (serial only: see ckptFingerprint).
			if !rsres.Sharded && rsres.EventKinds != plain.EventKinds {
				t.Fatalf("resumed EventKinds %v, uninterrupted %v", rsres.EventKinds, plain.EventKinds)
			}
			if got := rsres.EventKinds.Total(); got != rsres.Events {
				t.Fatalf("resumed EventKinds sum to %d, Events = %d", got, rsres.Events)
			}
		})
	}
}

// requirePendingRuns runs cfg up to its last checkpoint instant and fails
// unless the ledger counts more parked data packets than exist — the excess
// are segments of NIC runs — and ToR VOQs hold records: that checkpoint then
// has to carry both.
func requirePendingRuns(t *testing.T, cfg SimConfig, every sim.Time) {
	t.Helper()
	st, err := (*Runner)(nil).buildSim(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	last := (st.horizon - 1) / every * every
	if st.sharded {
		st.sh.Run(last)
	} else {
		st.eng.Run(last)
	}
	_, _, live, inVOQs := st.net.PoolStats()
	built := live + inVOQs // a packet parked in a VOQ was built
	if parked := st.net.InFlightData(); parked <= int64(built) {
		t.Fatalf("at the last checkpoint (%v) %d data packets are parked and %d exist: no NIC run is pending", last, parked, built)
	}
	if inVOQs == 0 {
		t.Fatalf("at the last checkpoint (%v) no ToR VOQ holds a record: the checkpoint carries no VOQ", last)
	}
}

// TestResumeOlderVersionRejected: a checkpoint written before the current
// container version (5: ports' reserved wakeups recorded in the event order;
// 4: calendar queues written as the slots that exist, without per-queue
// counters, and no buffered ingress; 3 wrote RotorLB VOQs as records; 2
// brought the sparse ports section and NIC run records) is refused whole,
// and the run starts cold with the reason recorded.
func TestResumeOlderVersionRejected(t *testing.T) {
	cfg := ScaledConfig(VLB, transport.Rotor, "datamining")
	cfg.Duration = sim.Millisecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := cfg
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEvery = 400 * sim.Microsecond
	if _, err := Run(ck); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(ck.CheckpointDir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one checkpoint file, got %v (%v)", ents, err)
	}
	path := filepath.Join(ck.CheckpointDir, ents[0].Name())
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version 6 in the header, with the header checksum (the container's
	// FNV-1a variant over bytes 0..32) made right again.
	binary.LittleEndian.PutUint32(img[8:], 6)
	sum := uint64(1469598103934665603)
	for _, c := range img[:32] {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	binary.LittleEndian.PutUint64(img[32:], sum)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	ck.Resume = true
	res, err := Run(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.ResumeNote, "cold run") || !strings.Contains(res.ResumeNote, "file version 6, want 7") {
		t.Fatalf("expected a cold run naming the version, got note %q", res.ResumeNote)
	}
	if withEvents(res) != withEvents(plain) {
		t.Fatal("cold fallback diverged from a plain run")
	}
}

// TestResumeMissingCheckpoint: Resume without a checkpoint on disk degrades
// to a cold run with the reason recorded, and identical results.
func TestResumeMissingCheckpoint(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Duration = sim.Millisecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 500 * sim.Microsecond
	cfg.Resume = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.ResumeNote, "cold run") {
		t.Fatalf("expected a cold-run note, got %q", res.ResumeNote)
	}
	if withEvents(res) != withEvents(plain) {
		t.Fatal("cold fallback diverged from a plain run")
	}
}

// TestResumeCorruptionRejected flips single bytes across the whole
// checkpoint file — header, every section, checksums — and requires each
// corruption to be rejected with a clean cold fallback whose result is
// identical to an uninterrupted run.
func TestResumeCorruptionRejected(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.NDP, "websearch")
	cfg.Duration = sim.Millisecond
	cfg.SampleEvery = 250 * sim.Microsecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := withEvents(plain)

	dir := t.TempDir()
	ck := cfg
	ck.CheckpointDir = dir
	ck.CheckpointEvery = 400 * sim.Microsecond
	if _, err := Run(ck); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one checkpoint file, got %v (%v)", ents, err)
	}
	path := filepath.Join(dir, ents[0].Name())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rs := ck
	rs.Resume = true
	// One flip inside the header, then one inside each stretch of the
	// payload (sections are contiguous, so stepping through the file hits
	// every section at least once).
	offsets := []int{9}
	step := (len(orig) - 40) / 12
	if step < 1 {
		step = 1
	}
	for off := 40; off < len(orig); off += step {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(rs)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !strings.Contains(res.ResumeNote, "cold run") {
			t.Fatalf("offset %d: corruption not rejected, note %q", off, res.ResumeNote)
		}
		if withEvents(res) != want {
			t.Fatalf("offset %d: cold fallback diverged", off)
		}
	}
}

// notADir returns the path of a regular file, for a target directory that
// cannot be written into whatever the caller's permissions.
func notADir(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointWriteFailureNoted: checkpoint writes that fail leave the run
// as it was and land in Result.ResumeNote once — the count and the first
// error — rather than once per checkpoint instant.
func TestCheckpointWriteFailureNoted(t *testing.T) {
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Duration = sim.Millisecond
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = notADir(t)
	cfg.CheckpointEvery = 250 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Instants 250 µs … 3.75 ms before the 4 ms horizon.
	if want := "15 checkpoint writes failed, the first: "; !strings.HasPrefix(res.ResumeNote, want) {
		t.Fatalf("ResumeNote %q, want prefix %q", res.ResumeNote, want)
	}
	if withEvents(res) != withEvents(plain) {
		t.Fatal("failed checkpoint writes perturbed the run")
	}
}

// TestResumeAtManyInstants resumes a 1 ms run from a checkpoint taken every
// 37 µs — instants that fall anywhere in a slice, in a packet's
// serialization, or between a send and the wakeup it reserved — and requires
// each resumed run to equal the uninterrupted one, event count included. A
// port that sends with nothing left queued reserves its next wakeup rather
// than scheduling it (DESIGN.md §6); a checkpoint has to carry those
// reservations for a resumed run's same-instant order to be the original's,
// and the test requires that some checkpoints caught ports holding one.
func TestResumeAtManyInstants(t *testing.T) {
	for _, tr := range []transport.Kind{transport.NDP, transport.DCTCP} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := ScaledConfig(UCMP, tr, "websearch")
			cfg.Duration = sim.Millisecond
			cfg.Horizon = sim.Millisecond
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := withEvents(plain)

			cfg.CheckpointDir = t.TempDir()
			st, err := (*Runner)(nil).buildSim(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			key := configKey(cfg, st.flows)
			resume := cfg
			resume.Resume = true
			holding := 0
			const every = 37 * sim.Microsecond
			for at := every; at < cfg.Horizon; at += every {
				st.eng.Run(at)
				if st.net.ReservedWakeups() > 0 {
					holding++
				}
				st.writeCheckpoint(key)
				if st.ckptErr != nil {
					t.Fatal(st.ckptErr)
				}
				res, err := Run(resume)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(res.ResumeNote, "resumed at") {
					t.Fatalf("at %v: expected a resume, got note %q", at, res.ResumeNote)
				}
				if got := withEvents(res); got != want {
					t.Fatalf("resumed at %v, the run diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", at, want, got)
				}
			}
			if holding < 5 {
				t.Fatalf("only %d checkpoints caught a reserved wakeup", holding)
			}
		})
	}
}
