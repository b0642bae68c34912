package harness

import (
	"fmt"
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
	// Note says why a requested fabric cache was not used or not written;
	// empty otherwise. A store hit carries the note of the build it serves.
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
// was set but unusable or not written. With FabricCacheDir unset it simply
// builds cold; so does a schedule with no rotation symmetry (the cache file
// holds the canonical form only), which the note records. Otherwise it loads
// the cache file and only then builds cold — saving the result (best-effort)
// so the next process starts warm. In-process reuse is the Runner's, not
// this function's: a loaded path set owns its store, so the handle, whose
// table is the one part aliasing the file mapping, is closed at once. The
// file also carries ToR 0's compiled table, written here and read by nothing
// in a run: it is the switch-install artifact (§6.2) that Validate and
// Table 2 inspect. Warm and cold results are byte-identical by construction:
// the codec round-trips the canonical arena exactly, and the differential
// tests pin it.
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

	if wf, err := fabriccache.Load(path, fab, params, fabriccache.Options{}); err == nil {
		ps := wf.PS
		wf.Close()
		return ps, true, ""
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
	return ps, false, note
}
