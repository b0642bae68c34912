package core

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ucmp/internal/topo"
)

// PathSet is the complete offline output of UCMP path calculation: one
// UCMP group per (t_start, src, dst). It is what gets compiled into the
// per-ToR source routing tables (§6.2). The groups live in the packed,
// pointer-free store of pathstore.go and are read through View; Group
// materializes one on demand.
type PathSet struct {
	F     *topo.Fabric
	Calc  *Calculator
	Model CostModel

	// sym marks the rotation-symmetric canonical build (pathset_sym.go):
	// source-0 records only, spine indexed t_start·N+Δ. Brute-force and
	// baseline builds index the spine (t_start·N+src)·N+dst. Either way
	// segs holds one segment per starting slice, and hops reads their hop
	// codes back.
	sym   bool
	segs  []segment
	spine []uint32
	hops  *hopTable
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
// pool; each worker reuses one DP row and one word buffer across the slices
// it claims, so the build performs O(workers) — not O(S) — scratch
// allocations, and packs each slice's groups straight from the DP rows into
// the slice's own store segment. It panics with the packer's error when a
// fabric does not fit the store's field widths (a hop more than
// 2^(16−b)−1 slices past t_start, b = bits.Len(d−1); more than 65,536
// distinct profiles in one starting slice): the signature predates the
// packed store, and no fabric the DP can finish comes near either.
func BuildPathSetOpts(f *topo.Fabric, alpha float64, opt BuildOptions) *PathSet {
	ps := newPathSet(f, alpha, opt.MaxParallel)
	workers := effectiveWorkers(opt.Workers, f.Sched.S)
	var err error
	if f.Sched.Rotation() && !opt.NoSymmetry {
		err = ps.buildSymmetric(workers)
	} else {
		err = ps.buildBrute(workers)
	}
	if err != nil {
		panic(err)
	}
	return ps
}

// newPathSet returns an empty UCMP path set for f: its calculator, keeping
// maxParallel ties when that is positive, and α's cost model.
func newPathSet(f *topo.Fabric, alpha float64, maxParallel int) *PathSet {
	calc := NewCalculator(f)
	if maxParallel > 0 {
		calc.MaxParallel = maxParallel
	}
	return &PathSet{
		F:    f,
		Calc: calc,
		Model: CostModel{
			Alpha:       alpha,
			LinkBps:     float64(f.LinkBps),
			SliceMicros: f.SliceDuration.Micros(),
		},
		hops: newHopTable(f.Sched),
	}
}

// buildBrute computes all N² rows of every starting slice; each slice gets
// its own segment and its own range of the spine. A worker computes one
// source row at a time into its RowTables and packs the row's N−1 records
// into its packer's word buffer, then copies the finished slice out at its
// exact size and reuses the buffer for the next slice.
func (ps *PathSet) buildBrute(workers int) error {
	n, s := ps.F.Sched.N, ps.F.Sched.S
	ps.segs = make([]segment, s)
	ps.spine = make([]uint32, s*n*n)
	return ps.eachSlice(workers, func() func(*packer, int) {
		var row *RowTables
		return func(p *packer, ts int) {
			p.begin(p.words, ts)
			for src := 0; src < n; src++ {
				row = ps.Calc.ComputeRowInto(ts, src, row)
				if src == 0 {
					// Rows of one slice take about as many words each:
					// sizing the buffer from the first spares growing it.
					var words int
					words, p.levels = row.groupWords(p.levels)
					p.words = slices.Grow(p.words, words*n)
				}
				spine := ps.spine[(ts*n+src)*n : (ts*n+src+1)*n]
				for dst := range spine {
					if dst != src {
						spine[dst] = p.group(row, dst)
						p.seal(spine[dst])
					}
				}
			}
			seg := p.segment()
			seg.words = slices.Clone(seg.words)
			ps.segs[ts] = seg
		}
	})
}

// eachSlice runs one unit of packing work per starting slice over a pool of
// `workers` goroutines. Every worker owns a packer and a work function made
// by newWork (so the function can hold the worker's DP scratch), and claims
// slices off a shared counter; work writes only what belongs to its slice,
// so the result is byte-identical to the serial build regardless of
// goroutine scheduling. The first packer error ends the build.
func (ps *PathSet) eachSlice(workers int, newWork func() func(p *packer, ts int)) error {
	s := ps.F.Sched.S
	errs := make([]error, workers)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, work := newPacker(ps.F, ps.Model), newWork()
			for p.err == nil {
				ts := int(next.Add(1))
				if ts >= s {
					break
				}
				work(p, ts)
			}
			errs[w] = p.err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// View returns the allocation-free view of the UCMP group for a cyclic
// starting slice and ToR pair — what route planning, table compilation and
// every other per-group reader use. src == dst yields the zero view.
func (ps *PathSet) View(tstart, src, dst int) GroupView {
	n := ps.F.Sched.N
	slot, rot := (tstart*n+src)*n+dst, 0
	if ps.sym {
		delta := dst - src
		if delta < 0 {
			delta += n
		}
		slot, rot = tstart*n+delta, src
	}
	off := ps.spine[slot]
	if off == 0 {
		return GroupView{}
	}
	seg := &ps.segs[tstart]
	rec := seg.words[off:]
	return GroupView{
		Src: src, Dst: dst, StartSlice: tstart,
		rec: rec, prof: &seg.profiles[rec[0]], hops: ps.hops, rot: int32(rot),
	}
}

// Group materializes the UCMP group for a cyclic starting slice and ToR
// pair (nil for src == dst). It allocates; per-packet and per-row code
// reads View instead.
func (ps *PathSet) Group(tstart, src, dst int) *Group {
	return ps.View(tstart, src, dst).Materialize()
}

// Footprint reports the resident size of the packed store.
func (ps *PathSet) Footprint() Footprint {
	n, s := ps.F.Sched.N, ps.F.Sched.S
	fp := Footprint{Groups: s * n * (n - 1), SpineBytes: 4 * int64(len(ps.spine))}
	if ps.sym {
		fp.Groups = s * (n - 1)
	}
	for i := range ps.segs {
		seg := &ps.segs[i]
		fp.StoreBytes += 2 * int64(len(seg.words))
		for _, pr := range seg.profiles {
			fp.StoreBytes += 8 * int64(len(pr.hull)+len(pr.thr))
		}
	}
	return fp
}

// GlobalThresholds returns the union of all bucket boundary values across
// every UCMP group (§6.1): the globally recognizable stepping thresholds
// for flow aging. Every group's thresholds are those of its interned
// profile and every profile has a group, so the union over the few hundred
// profiles is the union over all groups (on a symmetric build too:
// thresholds are α-free functions of (hop, latency) hull points, which
// rotation and time shift preserve).
func (ps *PathSet) GlobalThresholds() []float64 {
	seen := make(map[int64]struct{})
	var out []float64
	for i := range ps.segs {
		for _, pr := range ps.segs[i].profiles {
			for _, thr := range pr.thr {
				k := int64(thr) // thresholds are whole byte counts apart
				if _, ok := seen[k]; !ok {
					seen[k] = struct{}{}
					out = append(out, thr)
				}
			}
		}
	}
	sort.Float64s(out)
	return out
}

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

// BackupDepth is how many backup 2-hop paths BackupPaths offers: the
// cheapest few, which §5.3 recovery tries in turn.
const BackupDepth = 4

// BackupPaths prepares backup 2-hop paths for failure recovery (§5.3).
// They matter in the slices where a direct circuit makes the 1-hop path the
// sole member of the group; `exclude` drops candidates traversing failed
// ToRs. Up to BackupDepth paths are returned, cheapest first.
func (ps *PathSet) BackupPaths(tstart, src, dst int, exclude func(tor int) bool) []*Path {
	all := ps.RelaxedTwoHop(tstart, src, dst, 0)
	var out []*Path
	for _, p := range all {
		if exclude != nil && exclude(p.Hops[0].To) {
			continue
		}
		out = append(out, p)
		if len(out) == BackupDepth {
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
	// On a symmetric build each spine slot stands for exactly N (src, dst)
	// pairs, so counting slots weighs every concrete group equally and the
	// shares are unchanged.
	single, groups, paths := 0, 0, 0
	perSlice := len(ps.spine) / len(ps.segs)
	for slot, off := range ps.spine {
		if off == 0 {
			continue
		}
		np := GroupView{rec: ps.segs[slot/perSlice].words[off:]}.NumPaths()
		groups++
		paths += np
		if np == 1 {
			single++
		}
	}
	if groups == 0 {
		return 0, 0
	}
	return float64(single) / float64(groups), float64(single) / float64(paths)
}
