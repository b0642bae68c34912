package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/switchres"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
)

// ScalePoint is one fabric size of the scaling sweep: offline build,
// table compile, and an end-to-end permutation simulation, with wall-clock
// and peak-memory accounting per phase. It is the record behind the
// README's "scaling to 1024 ToRs" table.
type ScalePoint struct {
	N, D int

	// Symmetric reports whether the rotation-symmetric canonical build ran;
	// CanonRows is its S·(N-1) spine size, one record per canonical slot
	// (zero for brute-force builds).
	Symmetric bool
	CanonRows int

	// Warm reports that the path set came from the warm-fabric cache (file
	// or in-process) rather than an offline build — BuildSec is then the
	// load time. PathSet is the same outcome with the store's footprint, as
	// the sweep's `path set:` lines print it.
	Warm    bool
	PathSet PathSetInfo

	// Phase wall clocks. SimSec covers the whole Run, including the
	// router's own path-set build.
	BuildSec   float64
	CompileSec float64
	SimSec     float64

	// Peak heap accounting over the whole point (runtime.MemStats sampled
	// concurrently): the high-water live heap and the OS-reserved bytes.
	PeakHeapBytes uint64
	PeakSysBytes  uint64

	// Compiled-table footprint for one source ToR.
	NaiveRows   int
	PackedRows  int
	PackedBytes int

	// Permutation run outcome; Sim is the run itself.
	Flows        int
	Finished     int
	EventsPerSec float64
	Sim          *Result
}

// memSampler polls runtime.MemStats and keeps the high-water marks. Each
// ReadMemStats stops the world briefly, so the poll period is coarse.
type memSampler struct {
	mu       sync.Mutex
	peakHeap uint64
	peakSys  uint64
	stop     chan struct{}
	done     chan struct{}
}

func startMemSampler(every time.Duration) *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mu.Lock()
	if m.HeapAlloc > s.peakHeap {
		s.peakHeap = m.HeapAlloc
	}
	if m.Sys > s.peakSys {
		s.peakSys = m.Sys
	}
	s.mu.Unlock()
}

// halt takes a final sample and returns the high-water marks.
func (s *memSampler) halt() (peakHeap, peakSys uint64) {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakHeap, s.peakSys
}

// ScaleConfig tunes the sweep.
type ScaleConfig struct {
	Ns       []int    // fabric sizes; nil: DefaultScaleNs
	D        int      // uplinks per ToR; 0: 8
	FlowSize int64    // bytes per permutation flow; 0: 64 KiB
	Horizon  sim.Time // sim horizon; 0: 20 ms
	Seed     int64
	// CacheDir enables the warm-fabric cache (SimConfig.FabricCacheDir):
	// each point's path set is loaded from a compiled-fabric file when one
	// matches, built-and-saved otherwise, and shared with the point's
	// simulation run instead of being built twice.
	CacheDir string
}

// DefaultScaleNs are the sweep's fabric sizes: the paper scale plus the
// power-of-two ladder to the 1024-ToR north star. 108 is not a power of
// two, so it exercises the brute-force fallback; the rest take the
// rotation-symmetric canonical build.
var DefaultScaleNs = []int{108, 256, 512, 1024}

// ScaleSweep measures offline build, table compile, and an end-to-end
// permutation simulation at each fabric size.
func ScaleSweep(cfg ScaleConfig) (*Report, []ScalePoint, error) {
	ns := cfg.Ns
	if ns == nil {
		ns = DefaultScaleNs
	}
	d := cfg.D
	if d == 0 {
		d = 8
	}
	flowSize := cfg.FlowSize
	if flowSize == 0 {
		flowSize = 64 << 10
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = 20 * sim.Millisecond
	}

	r := &Report{Title: fmt.Sprintf("Scaling sweep: permutation run, d=%d, %d KiB flows", d, flowSize>>10)}
	r.Addf("%-7s %-5s %-9s %-9s %-8s %-8s %-9s %-10s %-10s %-11s %-9s",
		"N", "sym", "build(s)", "canon", "compile", "sim(s)", "events", "events/s", "rows", "packed(KB)", "peak(MB)")
	var points []ScalePoint
	for _, n := range ns {
		p, err := scalePoint(n, d, flowSize, horizon, cfg.Seed, cfg.CacheDir)
		if err != nil {
			return nil, nil, fmt.Errorf("scale N=%d: %w", n, err)
		}
		points = append(points, p)
		canon := "-"
		if p.Symmetric {
			canon = fmt.Sprint(p.CanonRows)
		}
		build := fmt.Sprintf("%.2f", p.BuildSec)
		if p.Warm {
			build += "*" // warm: loaded from the fabric cache, not built
		}
		r.Addf("%-7d %-5v %-9s %-9s %-8.2f %-8.2f %-9d %-10.0f %-10s %-11d %-9.0f",
			p.N, p.Symmetric, build, canon, p.CompileSec, p.SimSec, p.Sim.Events, p.EventsPerSec,
			fmt.Sprintf("%d/%d", p.PackedRows, p.NaiveRows), p.PackedBytes>>10, float64(p.PeakHeapBytes)/(1<<20))
	}
	for _, p := range points {
		r.Addf("path set: N=%d %s", p.N, p.PathSet)
	}
	if cfg.CacheDir != "" {
		warm := 0
		for _, p := range points {
			if p.Warm {
				warm++
			}
		}
		r.Addf("warm-fabric cache %s: %d/%d points loaded warm (*)", cfg.CacheDir, warm, len(points))
	}
	return r, points, nil
}

func scalePoint(n, d int, flowSize int64, horizon sim.Time, seed int64, cacheDir string) (ScalePoint, error) {
	tc := topo.Scaled()
	tc.NumToRs, tc.Uplinks = n, d
	fab, err := topo.NewFabric(tc, "round-robin", seed)
	if err != nil {
		return ScalePoint{}, err
	}
	p := ScalePoint{N: n, D: d, Symmetric: fab.Sched.Rotation()}

	sampler := startMemSampler(50 * time.Millisecond)

	sc := SimConfig{
		Topo:           tc,
		Routing:        UCMP,
		Transport:      transport.DCTCP,
		Alpha:          0.5,
		Horizon:        horizon,
		Seed:           seed,
		FabricCacheDir: cacheDir,
	}

	// With a cache dir this loads (or builds-and-saves) once; the point's
	// simulation run then reuses the same warm path set through the
	// process-wide cache instead of building a second copy.
	ps, info := timedPathSet(fab, sc)
	p.PathSet = info
	p.BuildSec, p.Warm = info.Seconds, info.Warm
	p.CanonRows, _ = ps.CanonStats()

	t0 := time.Now()
	p.NaiveRows, p.PackedRows, p.PackedBytes = switchres.ExactTable(ps, 0)
	p.CompileSec = time.Since(t0).Seconds()
	var flows []*netsim.Flow
	for tor := 0; tor < n; tor++ {
		src := tor * tc.HostsPerToR
		dst := ((tor + 1) % n) * tc.HostsPerToR
		flows = append(flows, netsim.NewFlow(int64(tor+1), src, dst, flowSize, 0))
	}
	sc.Flows = flows
	p.Flows = len(flows)

	t0 = time.Now()
	res, err := Run(sc)
	if err != nil {
		return ScalePoint{}, err
	}
	p.SimSec = time.Since(t0).Seconds()
	p.Sim = res
	if p.SimSec > 0 {
		p.EventsPerSec = float64(res.Events) / p.SimSec
	}
	for _, f := range res.Flows {
		if f.Finished {
			p.Finished++
		}
	}
	p.PeakHeapBytes, p.PeakSysBytes = sampler.halt()
	return p, nil
}
