package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// PathSetInfo says where a run's path set came from and what it weighs: the
// `path set:` line ucmpsim prints.
type PathSetInfo struct {
	// Warm is set when the path set was served rather than built: loaded
	// from the fabric cache file, or from the Runner's store. Seconds is
	// the wall time of that build, load or store lookup.
	Warm    bool
	Seconds float64
	// Note says why a requested fabric cache was not used, was refused and
	// rebuilt, or was not written; empty otherwise. A store hit carries the note of the build it serves.
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

// buildPaths builds what cfg's run plans from on fab: UCMP's path set
// (through the fabric cache when FabricCacheDir is set) or the KSP / Opera
// baseline router with its store, and the PathSetInfo describing the
// outcome. VLB reads no path set: the zero value.
func buildPaths(fab *topo.Fabric, cfg SimConfig) paths {
	t0 := time.Now()
	var p paths
	switch cfg.Routing {
	case UCMP:
		p.ps, p.info.Warm, p.info.Note = warmPathSet(fab, cfg)
	case KSP1:
		p.ksp = routing.NewKSP(fab, 1)
	case KSP5:
		p.ksp = routing.NewKSP(fab, 5)
	case Opera1:
		p.ksp = routing.NewOpera(fab, 1)
	case Opera5:
		p.ksp = routing.NewOpera(fab, 5)
	default:
		return p
	}
	if p.ksp != nil {
		p.ps = p.ksp.PS
	}
	p.info.Seconds, p.info.Footprint = time.Since(t0).Seconds(), p.ps.Footprint()
	return p
}

// warmPathSet returns the compiled path set for cfg's fabric, whether it was
// warm (loaded from the fabric cache file), and a note when FabricCacheDir
// was set but unusable, refused or not written. With FabricCacheDir unset it
// simply builds cold; so does a schedule with no rotation symmetry (the
// cache file holds the canonical form only), which the note records.
// Otherwise it loads the cache file and only then builds cold — saving the
// result (best-effort) so the next process starts warm. A file that exists
// but is refused (corrupt, stale, another format version) is rebuilt, and
// the note says why; a missing one is the ordinary cold start and says
// nothing. In-process reuse is the Runner's, not this function's. Warm and
// cold results are byte-identical by construction: the codec round-trips
// the canonical arena exactly, and the differential tests pin it.
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

	wf, err := fabriccache.Load(path, fab, params, fabriccache.Options{})
	if err == nil {
		return wf.PS, true, ""
	}
	var notes []string
	if _, serr := os.Stat(path); serr == nil {
		notes = append(notes, fmt.Sprintf("fabric cache rebuilt: %v", err))
	}
	ps := core.BuildPathSetWith(fab, cfg.Alpha, cfg.MaxParallel)
	// Best-effort: a full disk or read-only cache dir degrades to cold
	// builds with a note, not errors — the cold result is still correct.
	if ps.Symmetric() {
		if err := fabriccache.Save(path, ps, nil); err != nil {
			notes = append(notes, fmt.Sprintf("fabric cache not written: %v", err))
		}
	}
	return ps, false, strings.Join(notes, "; ")
}
