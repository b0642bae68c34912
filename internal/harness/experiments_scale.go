package harness

import (
	"fmt"
	"runtime"
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

	// PathSet is the point's one path-set build (or fabric-cache load):
	// its wall clock, whether it was warm, and the store's footprint, as the
	// sweep's build column and `path set:` lines print it.
	PathSet PathSetInfo

	// Phase wall clocks. SimSec covers the whole Run, which reads the
	// point's path set from the store instead of building it again.
	CompileSec float64
	SimSec     float64

	// PeakHeapBytes is the high-water live heap over the whole point
	// (runtime.MemStats sampled concurrently).
	PeakHeapBytes uint64

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

// memSampler polls runtime.MemStats and keeps the live-heap high-water
// mark. Each ReadMemStats stops the world briefly, so the poll period is
// coarse. Only the polling goroutine samples until halt has stopped it.
type memSampler struct {
	peakHeap uint64
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
	s.peakHeap = max(s.peakHeap, m.HeapAlloc)
}

// halt takes a final sample and returns the high-water mark.
func (s *memSampler) halt() uint64 {
	close(s.stop)
	<-s.done
	s.sample()
	return s.peakHeap
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
	// matches, built-and-saved otherwise.
	CacheDir string
}

// DefaultScaleNs are the sweep's fabric sizes: the paper scale plus the
// power-of-two ladder to the 1024-ToR north star. 108 is not a power of
// two, so it exercises the brute-force fallback; the rest take the
// rotation-symmetric canonical build.
var DefaultScaleNs = []int{108, 256, 512, 1024}

// ScaleSweep measures offline build, table compile, and an end-to-end
// permutation simulation at each fabric size. Each point gets its own
// Runner: the point builds its path set once through it and runs on that
// same path set, and no point's store outlives it into the next point's
// peak-heap column.
func ScaleSweep(cfg ScaleConfig) (*Report, []ScalePoint, error) {
	if cfg.Ns == nil {
		cfg.Ns = DefaultScaleNs
	}
	if cfg.D == 0 {
		cfg.D = 8
	}
	if cfg.FlowSize == 0 {
		cfg.FlowSize = 64 << 10
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 20 * sim.Millisecond
	}

	r := &Report{Title: fmt.Sprintf("Scaling sweep: permutation run, d=%d, %d KiB flows", cfg.D, cfg.FlowSize>>10)}
	r.Addf("%-7s %-5s %-9s %-9s %-8s %-8s %-9s %-10s %-10s %-11s %-9s",
		"N", "sym", "build(s)", "canon", "compile", "sim(s)", "events", "events/s", "rows", "packed(KB)", "peak(MB)")
	var points []ScalePoint
	warm := 0
	for _, n := range cfg.Ns {
		p, err := scalePoint(cfg, n)
		if err != nil {
			return nil, nil, fmt.Errorf("scale N=%d: %w", n, err)
		}
		points = append(points, p)
		canon := "-"
		if p.Symmetric {
			canon = fmt.Sprint(p.CanonRows)
		}
		build := fmt.Sprintf("%.2f", p.PathSet.Seconds)
		if p.PathSet.Warm {
			build += "*" // warm: loaded from the fabric cache, not built
			warm++
		}
		r.Addf("%-7d %-5v %-9s %-9s %-8.2f %-8.2f %-9d %-10.0f %-10s %-11d %-9.0f",
			p.N, p.Symmetric, build, canon, p.CompileSec, p.SimSec, p.Sim.Events, p.EventsPerSec,
			fmt.Sprintf("%d/%d", p.PackedRows, p.NaiveRows), p.PackedBytes>>10, float64(p.PeakHeapBytes)/(1<<20))
	}
	for _, p := range points {
		r.Addf("path set: N=%d %s", p.N, p.PathSet)
	}
	if cfg.CacheDir != "" {
		r.Addf("warm-fabric cache %s: %d/%d points loaded warm (*)", cfg.CacheDir, warm, len(points))
	}
	return r, points, nil
}

func scalePoint(cfg ScaleConfig, n int) (ScalePoint, error) {
	tc := topo.Scaled()
	tc.NumToRs, tc.Uplinks = n, cfg.D
	fab, err := topo.NewFabric(tc, "round-robin", cfg.Seed)
	if err != nil {
		return ScalePoint{}, err
	}
	p := ScalePoint{N: n, D: cfg.D, Symmetric: fab.Sched.Rotation()}

	sampler := startMemSampler(50 * time.Millisecond)

	sc := SimConfig{
		Topo:           tc,
		Routing:        UCMP,
		Transport:      transport.DCTCP,
		Alpha:          0.5,
		Horizon:        cfg.Horizon,
		Seed:           cfg.Seed,
		FabricCacheDir: cfg.CacheDir,
	}

	// With a cache dir this loads (or builds-and-saves) once; the point's
	// simulation run then reads the same path set from r's store.
	r := &Runner{}
	paths := r.pathSet(fab, sc)
	p.PathSet = paths.info
	p.CanonRows, _ = paths.ps.CanonStats()

	t0 := time.Now()
	p.NaiveRows, p.PackedRows, p.PackedBytes = switchres.ExactTable(paths.ps, 0)
	p.CompileSec = time.Since(t0).Seconds()
	var flows []*netsim.Flow
	for tor := 0; tor < n; tor++ {
		src := tor * tc.HostsPerToR
		dst := ((tor + 1) % n) * tc.HostsPerToR
		flows = append(flows, netsim.NewFlow(int64(tor+1), src, dst, cfg.FlowSize, 0))
	}
	sc.Flows = flows
	p.Flows = len(flows)

	t0 = time.Now()
	res, err := r.run(sc)
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
	p.PeakHeapBytes = sampler.halt()
	return p, nil
}
