package harness

import (
	"fmt"
	"sync"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// Warm-fabric plumbing (DESIGN.md §14). Loaded fabric handles are cached
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

// PathSetInfo says where a run's path set came from and what it weighs: the
// one `path set:` line ucmpsim and the scale sweep print.
type PathSetInfo struct {
	// Warm is set when the path set was served from the fabric cache (file
	// or in-process) rather than built; Seconds is the wall time of that
	// build or load.
	Warm    bool
	Seconds float64
	// Note says why a requested fabric cache was not used; empty otherwise.
	Note string
	core.Footprint
}

// String renders "cold-built in 0.15 s, G groups, X MB store, Y B/group",
// followed by the note when there is one.
func (i PathSetInfo) String() string {
	how := "cold-built"
	if i.Warm {
		how = "cache-loaded"
	}
	s := fmt.Sprintf("%s in %.2f s, %s", how, i.Seconds, i.Footprint)
	if i.Note != "" {
		s += "; " + i.Note
	}
	return s
}

// timedPathSet is warmPathSet plus the PathSetInfo describing the outcome.
func timedPathSet(fab *topo.Fabric, cfg SimConfig) (*core.PathSet, PathSetInfo) {
	t0 := time.Now()
	ps, warm, note := warmPathSet(fab, cfg)
	return ps, PathSetInfo{Warm: warm, Seconds: time.Since(t0).Seconds(), Note: note, Footprint: ps.Footprint()}
}

// timedBaseline builds a KSP or Opera router plus the PathSetInfo of its
// store: always cold-built, never cached.
func timedBaseline(build func(*topo.Fabric, int) *routing.KSP, fab *topo.Fabric, k int) (*routing.KSP, PathSetInfo) {
	t0 := time.Now()
	r := build(fab, k)
	return r, PathSetInfo{Seconds: time.Since(t0).Seconds(), Footprint: r.PS.Footprint()}
}

// warmPathSet returns the compiled path set for cfg's fabric, whether it was
// warm (served without an offline build), and a note when FabricCacheDir was
// set but unusable or not written. With FabricCacheDir unset it simply
// builds cold; so does a schedule with no rotation symmetry (the cache file
// holds the canonical form only), which the note records. Otherwise it serves from the
// in-process cache, then from the cache file, and only then builds cold —
// saving the result (best-effort) so the next process starts warm. The file
// also carries ToR 0's compiled table, written here and read by nothing in a
// run: it is the switch-install artifact (§6.2) that Validate and Table 2
// inspect. Warm and cold results are byte-identical by construction: the
// codec round-trips the canonical arena exactly, and the differential tests
// pin it.
func warmPathSet(fab *topo.Fabric, cfg SimConfig) (*core.PathSet, bool, string) {
	if cfg.FabricCacheDir == "" {
		return core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel), false, ""
	}
	if !fab.Sched.Rotation() {
		return core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel), false,
			"fabric cache unused: schedule has no rotation symmetry"
	}
	params := fabriccache.Params{Alpha: cfg.Alpha, MaxParallel: cfg.MaxParallel}
	path := fabriccache.FileName(cfg.FabricCacheDir, fab, params)

	warmFabrics.Lock()
	defer warmFabrics.Unlock()
	if warmFabrics.m == nil {
		warmFabrics.m = make(map[string]*fabriccache.Fabric)
	}
	if wf, ok := warmFabrics.m[path]; ok {
		return wf.PS, true, ""
	}
	if wf, err := fabriccache.Load(path, fab, params, fabriccache.Options{}); err == nil {
		warmFabrics.m[path] = wf
		return wf.PS, true, ""
	}
	// Missing, stale, or corrupted file: rebuild and overwrite.
	ps := core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel)
	if !ps.Symmetric() {
		return ps, false, ""
	}
	table := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
	// Best-effort: a full disk or read-only cache dir degrades to cold
	// builds with a note, not errors — the cold result is still correct.
	var note string
	if err := fabriccache.Save(path, ps, table); err != nil {
		note = fmt.Sprintf("fabric cache not written: %v", err)
	}
	warmFabrics.m[path] = &fabriccache.Fabric{PS: ps, Table: table}
	return ps, false, note
}
