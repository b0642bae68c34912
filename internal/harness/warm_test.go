package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

func warmCachePathFor(t *testing.T, fab *topo.Fabric, cfg SimConfig) string {
	t.Helper()
	path := fabriccache.FileName(cfg.FabricCacheDir,
		fab, fabriccache.Params{Alpha: cfg.Alpha, MaxParallel: cfg.MaxParallel})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	return path
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x20
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dropWarmFabrics empties the process-wide warm cache so the next run must
// go back to the cache file (the mmap load path). Handles are deliberately
// not Closed: decoded tables may alias their mappings, and leaked read-only
// mappings are harmless in a test process.
func dropWarmFabrics() {
	warmFabrics.Lock()
	warmFabrics.m = nil
	warmFabrics.Unlock()
}

// TestDifferentialWarmFabric is the warm-vs-cold determinism pin: a run
// served from a fabric cache file's mmap'd path set produces byte-identical
// results to the cold build and still agrees between the serial and sharded
// engines, and the ToR-0 table the file carries is byte-identical to a cold
// compile.
func TestDifferentialWarmFabric(t *testing.T) {
	dir := t.TempDir()
	base := ScaledConfig(UCMP, transport.DCTCP, "websearch")
	// The scaled default is (16, 3); d must be even for the round-robin
	// schedule to carry the rotation witness the canonical form needs.
	base.Topo.Uplinks = 4
	base.Duration = sim.Millisecond
	base.Seed = 21

	coldRes, err := Run(base) // no cache dir: the reference cold run
	if err != nil {
		t.Fatal(err)
	}
	coldFP := fingerprint(coldRes)

	populate := base
	populate.FabricCacheDir = dir
	popRes, err := Run(populate) // cold build + save
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(popRes) != coldFP {
		t.Fatal("populating run diverges from the cold run")
	}
	wantGroups := 4 * 15 // S·(N−1) canonical rows of the (16,4) fabric
	if i := popRes.PathSet; i.Warm || i.Groups != wantGroups || i.StoreBytes == 0 {
		t.Fatalf("populating run reports path set %q, want a cold build of %d groups", i, wantGroups)
	}

	dropWarmFabrics() // force the next run through the file, not the map
	warmRes, err := Run(populate)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(warmRes) != coldFP {
		t.Fatalf("warm run diverges from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
			coldFP, fingerprint(warmRes))
	}
	if i := warmRes.PathSet; !i.Warm || i.Footprint != popRes.PathSet.Footprint {
		t.Fatalf("warm run reports path set %q, want the populating run's footprint, cache-loaded", i)
	}

	// The table the file carries must be byte-identical to one compiled cold.
	fab := topo.MustFabric(base.Topo, ScheduleFor(base.Routing), base.Seed)
	ps, warm, note := warmPathSet(fab, populate)
	if !warm || note != "" {
		t.Fatalf("fabric not served warm after a cached run (note %q)", note)
	}
	loaded, err := fabriccache.Load(warmCachePathFor(t, fab, populate), fab,
		fabriccache.Params{Alpha: base.Alpha, MaxParallel: base.MaxParallel}, fabriccache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldPS := core.BuildPathSetWith(fab, base.Alpha, base.MaxParallel)
	coldTable := routing.CompileTable(coldPS, core.NewFlowAger(coldPS), 0)
	if !bytes.Equal(loaded.Table.Bytes(), coldTable.Bytes()) {
		t.Fatal("loaded ToR-0 table differs from a cold compile")
	}
	for _, tor := range []int{1, 7} {
		w := routing.CompileTable(ps, core.NewFlowAger(ps), tor)
		c := routing.CompileTable(coldPS, core.NewFlowAger(coldPS), tor)
		if !bytes.Equal(w.Bytes(), c.Bytes()) {
			t.Fatalf("table for ToR %d compiled from the warm path set differs", tor)
		}
	}

	// Serial vs sharded on the warm path set: the engines must still agree on
	// every simulation observable (fingerprintCore — event counts
	// legitimately differ between the engines).
	sharded := populate
	sharded.Shards = 4
	shRes, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !shRes.Sharded {
		t.Fatalf("sharded run fell back to serial: %s", shRes.ShardNote)
	}
	if fingerprintCore(shRes) != fingerprintCore(coldRes) {
		t.Fatalf("sharded warm run diverges from cold:\n--- cold ---\n%s\n--- sharded ---\n%s",
			fingerprintCore(coldRes), fingerprintCore(shRes))
	}

	// A corrupted cache file must be rebuilt, not served.
	dropWarmFabrics()
	path := warmCachePathFor(t, fab, populate)
	corruptFile(t, path)
	reRes, err := Run(populate)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(reRes) != coldFP {
		t.Fatal("run after cache corruption diverges from cold")
	}
	dropWarmFabrics()
	if _, warm, _ := warmPathSet(fab, populate); !warm {
		t.Fatal("rebuild did not overwrite the corrupted cache file")
	}
}

// A schedule with no rotation symmetry has no canonical form to cache: the
// run builds cold and says so instead of ignoring FabricCacheDir silently.
func TestFabricCacheUnusedNoted(t *testing.T) {
	cfg := quickBase()
	cfg.ScheduleKind = "random"
	cfg.FabricCacheDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if i := res.PathSet; i.Warm || !strings.Contains(i.String(), "fabric cache unused") {
		t.Fatalf("path set %q, want a cold build noting the unused cache", i)
	}
	if left, _ := os.ReadDir(cfg.FabricCacheDir); len(left) != 0 {
		t.Fatalf("cache dir holds %d files for an uncacheable schedule", len(left))
	}
}

// A fabric cache that cannot be written still serves a correct cold build,
// and the run's path-set note says the file was not written.
func TestFabricCacheSaveFailureNoted(t *testing.T) {
	cfg := quickBase()
	cfg.Topo.Uplinks = 4 // a rotation-symmetric schedule, so the cache is used
	cfg.FabricCacheDir = notADir(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if i := res.PathSet; i.Warm || !strings.HasPrefix(i.Note, "fabric cache not written: ") {
		t.Fatalf("path set %q, want a cold build noting the unwritten cache", i)
	}
}
