package harness

import (
	"os"
	"strings"
	"testing"

	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

func TestExtensionCongestion(t *testing.T) {
	base := quickBase()
	rep, out, err := ExtensionCongestion(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing variants")
	}
	plain, aware := out[0], out[1]
	// The congestion-aware variant must not be worse on p99 by a large
	// factor; under hotspots it is expected to help.
	if aware.Collector.Percentile(0.99) > plain.Collector.Percentile(0.99)*3 {
		t.Errorf("congestion-aware p99 %v vastly worse than plain %v",
			aware.Collector.Percentile(0.99), plain.Collector.Percentile(0.99))
	}
	if aware.CompletionRate < plain.CompletionRate-0.1 {
		t.Errorf("congestion-aware completion %v regressed vs %v",
			aware.CompletionRate, plain.CompletionRate)
	}
	_ = rep.String()
}

func TestExtensionMPTCP(t *testing.T) {
	rep, out, err := ExtensionMPTCP(nil, quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing variants")
	}
	for _, res := range out {
		if res.CompletionRate < 0.6 {
			t.Errorf("completion %.2f too low", res.CompletionRate)
		}
	}
	_ = rep.String()
}

func TestExtensionAlphaController(t *testing.T) {
	base := quickBase()
	base.Horizon = 8_000_000 // 8ms
	// The control closure cannot be checkpointed: the knobs are cleared
	// with a note, not silently ignored.
	base.CheckpointDir = t.TempDir()
	base.CheckpointEvery = sim.Millisecond
	rep, res, err := ExtensionAlphaController(base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched == 0 {
		t.Fatal("no flows")
	}
	if len(res.Collector.Samples) < 4 {
		t.Fatalf("controller ticked only %d times", len(res.Collector.Samples))
	}
	// The run is a harness run like any other: it accounts its events and
	// describes its path set.
	if res.Events == 0 || res.PathSet.Groups == 0 {
		t.Fatalf("controller run reports %d events, path set %q", res.Events, res.PathSet)
	}
	if !strings.Contains(res.ResumeNote, "checkpointing disabled") {
		t.Fatalf("ResumeNote = %q, want the checkpointing-disabled note", res.ResumeNote)
	}
	if left, _ := os.ReadDir(base.CheckpointDir); len(left) != 0 {
		t.Fatalf("controller run wrote %d checkpoint files", len(left))
	}
	_ = rep.String()
}

// TestAlphaControllerLeavesWarmFabricIntact: the controller retunes its own
// run's flow ager, never the path set — which, with a fabric cache, is the
// process-wide entry every later run of the same fabric ages flows from.
func TestAlphaControllerLeavesWarmFabricIntact(t *testing.T) {
	defer dropWarmFabrics()
	cfg := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	cfg.Topo.Uplinks = 4 // even d: rotation-symmetric, so the cache engages
	cfg.Duration = sim.Millisecond
	cfg.FabricCacheDir = t.TempDir()
	before, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtensionAlphaController(cfg, 0.06); err != nil {
		t.Fatal(err)
	}
	after, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !after.PathSet.Warm {
		t.Fatal("second run was not served from the warm fabric; the test is vacuous")
	}
	if fingerprint(before) != fingerprint(after) {
		t.Fatalf("a controller run changed later runs of the same fabric:\n--- before ---\n%s\n--- after ---\n%s",
			fingerprint(before), fingerprint(after))
	}
}
