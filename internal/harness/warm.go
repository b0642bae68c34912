package harness

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// Warm-fabric plumbing (DESIGN.md §15). Loaded fabric handles are cached
// process-wide, keyed by cache file path (which itself embeds the schedule
// fingerprint and build parameters), so all trials of a sweep share one
// mmap'd path set. Handles are never Closed: the table arrays alias the
// mapping and the map retains every loaded fabric for the process lifetime —
// read-only mappings cost address space, not dirty memory, and the set of
// distinct fabrics per process is small.
var warmFabrics struct {
	sync.Mutex
	m map[string]*fabriccache.Fabric
}

// PathSetInfo says where a run's UCMP path set came from and what it
// weighs: the one `path set:` line ucmpsim and the scale sweep print.
type PathSetInfo struct {
	// Warm is set when the path set was served from the fabric cache (file
	// or in-process) rather than built; Seconds is the wall time of that
	// build or load.
	Warm    bool
	Seconds float64
	core.Footprint
}

// String renders "cold-built in 0.15 s, G groups, X MB store, Y B/group".
func (i PathSetInfo) String() string {
	how := "cold-built"
	if i.Warm {
		how = "cache-loaded"
	}
	return fmt.Sprintf("%s in %.2f s, %s", how, i.Seconds, i.Footprint)
}

// timedPathSet is warmPathSet plus the PathSetInfo describing the outcome.
func timedPathSet(fab *topo.Fabric, cfg SimConfig) (*core.PathSet, *routing.CompiledTable, PathSetInfo) {
	t0 := time.Now()
	ps, table, warm := warmPathSet(fab, cfg)
	return ps, table, PathSetInfo{Warm: warm, Seconds: time.Since(t0).Seconds(), Footprint: ps.Footprint()}
}

// warmPathSet returns the compiled path set for cfg's fabric, plus ToR 0's
// compiled table when one came from the fabric cache (nil otherwise — the
// caller compiles tables lazily as usual), and whether the result was warm
// (served without an offline build). With FabricCacheDir unset, or for
// schedules with no canonical form, it simply builds cold. Otherwise it
// serves from the in-process cache, then from the cache file, and only then
// builds cold — saving the result (best-effort) so the next process starts
// warm. Warm and cold results are byte-identical by construction: the codec
// round-trips the canonical arena exactly, and the differential tests pin
// it.
func warmPathSet(fab *topo.Fabric, cfg SimConfig) (*core.PathSet, *routing.CompiledTable, bool) {
	if cfg.FabricCacheDir == "" || !fab.Sched.Rotation() {
		return core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel), nil, false
	}
	params := fabriccache.Params{Alpha: cfg.Alpha, MaxParallel: cfg.MaxParallel}
	path := fabriccache.FileName(cfg.FabricCacheDir, fab, params)

	warmFabrics.Lock()
	defer warmFabrics.Unlock()
	if warmFabrics.m == nil {
		warmFabrics.m = make(map[string]*fabriccache.Fabric)
	}
	if wf, ok := warmFabrics.m[path]; ok {
		return wf.PS, wf.Table, true
	}
	if wf, err := fabriccache.Load(path, fab, params, fabriccache.Options{}); err == nil {
		warmFabrics.m[path] = wf
		return wf.PS, wf.Table, true
	}
	// Missing, stale, or corrupted file: rebuild and overwrite.
	ps := core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel)
	if !ps.Symmetric() {
		return ps, nil, false
	}
	table := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
	// Best-effort: a full disk or read-only cache dir degrades to cold
	// builds with a warning, not errors — the cold result is still correct.
	if err := fabriccache.Save(path, ps, table); err != nil {
		fmt.Fprintf(os.Stderr, "harness: fabric cache not written: %v\n", err)
	}
	warmFabrics.m[path] = &fabriccache.Fabric{PS: ps, Table: table}
	return ps, table, false
}
