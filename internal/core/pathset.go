package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ucmp/internal/topo"
)

// PathSet is the complete offline output of UCMP path calculation: one
// UCMP group per (t_start, src, dst). It is what gets compiled into the
// per-ToR source routing tables (§6.2).
type PathSet struct {
	F     *topo.Fabric
	Calc  *Calculator
	Model CostModel

	groups [][]*Group // [t_start][src*N+dst]; nil for symmetric builds

	// Symmetric (canonical) storage, used when sym is true: canonIdx maps
	// (t_start*N + Δ) to an index into interned, the content-deduped store
	// of t_start-relative canonical groups (see pathset_sym.go). groups
	// stays nil — there is no N² spine at all.
	sym      bool
	canonIdx []int32
	interned []*Group
}

// BuildOptions tunes the offline build. The zero value picks the defaults.
type BuildOptions struct {
	// MaxParallel caps the tied (parallel) solutions retained per hop count
	// (0 keeps the calculator default of 4; 1 disables ECMP-style tie
	// spreading — an ablation knob).
	MaxParallel int
	// Workers bounds the pool computing starting slices concurrently.
	// 0 uses runtime.GOMAXPROCS(0); 1 forces the serial build. The output
	// is identical for every worker count: slices are independent DP
	// problems and each worker writes only the rows it claimed. The pool
	// is always clamped to the number of starting slices.
	Workers int
	// NoSymmetry forces the brute-force O(S·N²) build even when the
	// schedule's Rotation() witness holds — the reference side of the
	// symmetric-vs-brute differential tests, and an ablation knob.
	NoSymmetry bool
}

// BuildPathSet runs offline path calculation for every starting slice of
// the cycle. alpha is the §5.2 weight factor baked into the cost model.
func BuildPathSet(f *topo.Fabric, alpha float64) *PathSet {
	return BuildPathSetOpts(f, alpha, BuildOptions{})
}

// BuildPathSetWith is BuildPathSet with a custom cap on retained parallel
// solutions per hop count.
func BuildPathSetWith(f *topo.Fabric, alpha float64, maxParallel int) *PathSet {
	return BuildPathSetOpts(f, alpha, BuildOptions{MaxParallel: maxParallel})
}

// BuildPathSetOpts is the fully configurable build (§4, Alg. 1, run for all
// S starting slices). Starting slices are distributed over a bounded worker
// pool; each worker reuses one scratch Tables across the slices it claims,
// so the build performs O(workers) — not O(S) — table allocations.
func BuildPathSetOpts(f *topo.Fabric, alpha float64, opt BuildOptions) *PathSet {
	calc := NewCalculator(f)
	if opt.MaxParallel > 0 {
		calc.MaxParallel = opt.MaxParallel
	}
	ps := &PathSet{
		F:    f,
		Calc: calc,
		Model: CostModel{
			Alpha:       alpha,
			LinkBps:     float64(f.LinkBps),
			SliceMicros: f.SliceDuration.Micros(),
		},
	}
	s := f.Sched.S
	workers := effectiveWorkers(opt.Workers, s)
	if f.Sched.Rotation() && !opt.NoSymmetry {
		ps.buildSymmetric(workers)
		return ps
	}
	ps.groups = make([][]*Group, s)
	if workers <= 1 {
		var scratch *Tables
		for ts := 0; ts < s; ts++ {
			scratch = calc.ComputeInto(ts, scratch)
			ps.groups[ts] = calc.groupRow(scratch, ps.Model)
		}
		return ps
	}
	// Workers claim starting slices off a shared counter and write into
	// their preassigned groups[ts] rows: the result is byte-identical to
	// the serial build regardless of goroutine scheduling.
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch *Tables
			for {
				ts := int(next.Add(1))
				if ts >= s {
					return
				}
				scratch = calc.ComputeInto(ts, scratch)
				ps.groups[ts] = calc.groupRow(scratch, ps.Model)
			}
		}()
	}
	wg.Wait()
	return ps
}

// effectiveWorkers resolves a requested worker count against the number of
// parallelizable tasks: non-positive requests take GOMAXPROCS, and the pool
// never exceeds the task count (tiny-S fabrics must not spin idle
// goroutines) nor drops below one.
func effectiveWorkers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// groupRow extracts every pair's group for one starting slice, detaching
// all paths and thresholds from the (reusable) DP scratch.
func (c *Calculator) groupRow(t *Tables, m CostModel) []*Group {
	n := t.N
	row := make([]*Group, n*n)
	a := newGroupArena(t)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			row[src*n+dst] = c.groupFromRow(a, &t.rows[src], dst, m)
		}
	}
	return row
}

// Group returns the UCMP group for a cyclic starting slice and ToR pair.
// On a symmetric build this materializes (allocates) the group from its
// canonical representative; hot paths should use CanonGroup plus inline
// hop relabeling instead.
func (ps *PathSet) Group(tstart, src, dst int) *Group {
	if ps.sym {
		return ps.materializeGroup(tstart, src, dst)
	}
	return ps.groups[tstart][src*ps.F.Sched.N+dst]
}

// SetAlpha retunes the weight factor live (§5.2): bucket thresholds are
// α-free (Eqn. 4), so only the cost model's flow-to-bucket mapping changes;
// no path or threshold recomputation is needed.
func (ps *PathSet) SetAlpha(alpha float64) { ps.Model.Alpha = alpha }

// GlobalThresholds returns the union of all bucket boundary values across
// every UCMP group (§6.1): the globally recognizable stepping thresholds
// for flow aging. Values within one slice-duration quantum are merged.
func (ps *PathSet) GlobalThresholds() []float64 {
	// Thresholds are α-free functions of (hop, latency) hull points, which
	// rotation and time shift preserve — on a symmetric build the union
	// over the interned canonical groups is exactly the union over all
	// (t_start, src, dst) groups.
	if ps.sym {
		return globalThresholds(func(yield func(*Group)) {
			for _, g := range ps.interned {
				yield(g)
			}
		})
	}
	return globalThresholds(func(yield func(*Group)) {
		for _, row := range ps.groups {
			for _, g := range row {
				if g != nil {
					yield(g)
				}
			}
		}
	})
}

// globalThresholds merges the bucket boundaries of every group produced by
// the iterator. The distinct boundaries are a few dozen however many
// millions of groups repeat them, so neither the dedup map nor the output
// is pre-sized.
func globalThresholds(each func(yield func(*Group))) []float64 {
	seen := make(map[int64]struct{})
	var out []float64
	each(func(g *Group) {
		for _, thr := range g.Thresholds() {
			k := int64(thr) // thresholds are whole byte counts apart
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				out = append(out, thr)
			}
		}
	})
	sort.Float64s(out)
	return out
}

// GlobalBucketCount returns the number of flow-aging buckets a host needs
// (Table 2 column "#Buckets"): intervals between the global thresholds.
func (ps *PathSet) GlobalBucketCount() int { return len(ps.GlobalThresholds()) + 1 }

// RelaxedTwoHop implements latency relaxation for long flows (§4.3): all
// 2-hop paths src->mid->dst with relaxed (non-minimal) latencies. Unlike
// VLB, a relaxed path may wait at the source for a better circuit rather
// than forwarding immediately. Paths are sorted by latency; maxLatency (in
// slices, 0 = no cap) prunes the tail. The hop-count term of the uniform
// cost dominates for the long flows these serve, so every returned path
// still has lower uniform cost than forcing the flow onto the single
// minimum-latency path.
func (ps *PathSet) RelaxedTwoHop(tstart, src, dst int, maxLatency int64) []*Path {
	sched := ps.F.Sched
	start := int64(tstart)
	var out []*Path
	for mid := 0; mid < sched.N; mid++ {
		if mid == src || mid == dst {
			continue
		}
		e1 := sched.NextDirect(src, mid, start)
		e2 := sched.NextDirect(mid, dst, e1)
		p := &Path{Src: src, Dst: dst, StartSlice: start, Hops: []Hop{
			{To: mid, Slice: e1},
			{To: dst, Slice: e2},
		}}
		if maxLatency > 0 && p.LatencySlices() > maxLatency {
			continue
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].EndSlice() < out[j].EndSlice()
	})
	return out
}

// BackupPaths prepares backup 2-hop paths for failure recovery (§5.3).
// They matter in the slices where a direct circuit makes the 1-hop path the
// sole member of the group; `exclude` drops candidates traversing failed
// ToRs. Up to k paths are returned, cheapest first.
func (ps *PathSet) BackupPaths(tstart, src, dst, k int, exclude func(tor int) bool) []*Path {
	all := ps.RelaxedTwoHop(tstart, src, dst, 0)
	var out []*Path
	for _, p := range all {
		if exclude != nil && exclude(p.Hops[0].To) {
			continue
		}
		out = append(out, p)
		if len(out) == k {
			break
		}
	}
	return out
}

// SingleSliceShare returns the fraction of (t_start, src, dst) groups whose
// only member is the direct path (§5.3 reports 5.6% of the time for the
// paper's network), and the share of total UCMP paths that would need a
// backup (3.9% in the paper).
func (ps *PathSet) SingleSliceShare() (groupShare, pathShare float64) {
	single, groups, paths := 0, 0, 0
	count := func(g *Group) {
		groups++
		np := g.NumPaths()
		paths += np
		if np == 1 {
			single++
		}
	}
	if ps.sym {
		// Each canonical (t_start, Δ) reference stands for exactly N
		// (src, dst) pairs, so counting references weighs every concrete
		// group equally and the shares are unchanged.
		for _, idx := range ps.canonIdx {
			if idx >= 0 {
				count(ps.interned[idx])
			}
		}
	} else {
		for _, row := range ps.groups {
			for _, g := range row {
				if g != nil {
					count(g)
				}
			}
		}
	}
	if groups == 0 {
		return 0, 0
	}
	return float64(single) / float64(groups), float64(single) / float64(paths)
}
