// Package analysis computes the offline path characteristics of §7.2:
// UCMP group sizes and per-cycle path diversity, edge-disjointness, and
// hop-count distributions of UCMP versus the KSP/Opera baselines (Fig 5,
// Fig 16).
package analysis

import (
	"sort"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

// PathStats summarizes a PathSet (Fig 5a).
type PathStats struct {
	// GroupSizes histograms the number of paths per UCMP group.
	GroupSizes map[int]int
	// MeanGroupSize is the paper's "3.2 UCMP paths on average".
	MeanGroupSize float64
	// MultiPathShare is the fraction of groups with more than one path
	// (the paper's 94.4% "provides multi-paths").
	MultiPathShare float64
	// EdgeDisjointShare is the fraction of paths sharing no ToR-pair edge
	// with any other path of their group (93.2% in the paper).
	EdgeDisjointShare float64
	// PathsPerCycle histograms, per ToR pair, the number of unique paths
	// across all starting slices of a cycle.
	PathsPerCycle map[int]int
	// MeanPathsPerCycle is the paper's "average of 47.9 paths over time".
	MeanPathsPerCycle float64
	// HopHist histograms path hop counts over all groups and slices.
	HopHist map[int]int
	// MeanHops is the byte-free average hop count over all UCMP paths
	// (2.32 in the paper).
	MeanHops float64
}

// Analyze computes PathStats for a built PathSet.
func Analyze(ps *core.PathSet) PathStats {
	st := PathStats{
		GroupSizes:    make(map[int]int),
		PathsPerCycle: make(map[int]int),
		HopHist:       make(map[int]int),
	}
	sched := ps.F.Sched
	var groups, multi, pathsTotal, disjoint int
	var sizeSum int
	var hopSum int

	type pairKey struct{ src, dst int }
	unique := make(map[pairKey]map[string]struct{})

	for ts := 0; ts < sched.S; ts++ {
		for src := 0; src < sched.N; src++ {
			for dst := 0; dst < sched.N; dst++ {
				if src == dst {
					continue
				}
				g := ps.Group(ts, src, dst)
				n := g.NumPaths()
				st.GroupSizes[n]++
				groups++
				sizeSum += n
				if n > 1 {
					multi++
				}
				paths := g.AllPaths()
				edgeSets := make([]map[[2]int]struct{}, len(paths))
				for i, p := range paths {
					es := make(map[[2]int]struct{}, p.HopCount())
					for _, e := range p.Edges() {
						es[e] = struct{}{}
					}
					edgeSets[i] = es
					st.HopHist[p.HopCount()]++
					hopSum += p.HopCount()
					pathsTotal++

					key := pairKey{src, dst}
					m, ok := unique[key]
					if !ok {
						m = make(map[string]struct{})
						unique[key] = m
					}
					m[signature(p)] = struct{}{}
				}
				for i := range paths {
					shared := false
					for j := range paths {
						if i == j {
							continue
						}
						for e := range edgeSets[i] {
							if _, hit := edgeSets[j][e]; hit {
								shared = true
								break
							}
						}
						if shared {
							break
						}
					}
					if !shared {
						disjoint++
					}
				}
			}
		}
	}
	var cycleSum int
	for _, m := range unique {
		st.PathsPerCycle[len(m)]++
		cycleSum += len(m)
	}
	if groups > 0 {
		st.MeanGroupSize = float64(sizeSum) / float64(groups)
		st.MultiPathShare = float64(multi) / float64(groups)
	}
	if pathsTotal > 0 {
		st.EdgeDisjointShare = float64(disjoint) / float64(pathsTotal)
		st.MeanHops = float64(hopSum) / float64(pathsTotal)
	}
	if len(unique) > 0 {
		st.MeanPathsPerCycle = float64(cycleSum) / float64(len(unique))
	}
	return st
}

// signature renders the node sequence of a path (slices excluded: the same
// trajectory counted once per cycle).
func signature(p *core.Path) string {
	b := make([]byte, 0, 2*len(p.Hops)+2)
	b = append(b, byte(p.Src), byte(p.Src>>8))
	for _, h := range p.Hops {
		b = append(b, byte(h.To), byte(h.To>>8))
	}
	return string(b)
}

// HopDist is a normalized hop-count distribution (Fig 5b's stacked bars).
type HopDist struct {
	Name string
	// Share[h] is the fraction of paths with h hops; OverflowShare covers
	// hops beyond the last index.
	Share map[int]float64
	Mean  float64
}

// NewHopDist normalizes a histogram.
func NewHopDist(name string, hist map[int]int) HopDist {
	total, sum := 0, 0
	for h, c := range hist {
		total += c
		sum += h * c
	}
	d := HopDist{Name: name, Share: make(map[int]float64)}
	if total == 0 {
		return d
	}
	for h, c := range hist {
		d.Share[h] = float64(c) / float64(total)
	}
	d.Mean = float64(sum) / float64(total)
	return d
}

// SortedKeys returns the histogram keys in ascending order (stable output
// for the harness).
func SortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// LatencyStats characterizes the Eqn. 1 latencies of UCMP paths: the
// per-hop-count latency distribution across every group of the PathSet.
// The paper's Fig 2 path space predicts latency strictly decreasing with
// hop count within each group; these aggregates show how much waiting each
// hop-count level carries fabric-wide.
type LatencyStats struct {
	// MeanLatency[h] is the mean latency (slices) of kept h-hop paths.
	MeanLatency map[int]float64
	// MaxLatency[h] is the maximum.
	MaxLatency map[int]int64
	// GlobalMeanLatency is the byte-free mean over all paths.
	GlobalMeanLatency float64
}

// Latencies computes LatencyStats for a PathSet.
func Latencies(ps *core.PathSet) LatencyStats {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	maxes := make(map[int]int64)
	var total float64
	var n int
	sched := ps.F.Sched
	for ts := 0; ts < sched.S; ts++ {
		for src := 0; src < sched.N; src++ {
			for dst := 0; dst < sched.N; dst++ {
				if src == dst {
					continue
				}
				for _, e := range ps.Group(ts, src, dst).Entries {
					lat := e.LatencySlices
					h := e.HopCount
					sums[h] += float64(lat) * float64(len(e.Paths))
					counts[h] += len(e.Paths)
					if lat > maxes[h] {
						maxes[h] = lat
					}
					total += float64(lat) * float64(len(e.Paths))
					n += len(e.Paths)
				}
			}
		}
	}
	st := LatencyStats{MeanLatency: make(map[int]float64), MaxLatency: maxes}
	for h, s := range sums {
		st.MeanLatency[h] = s / float64(counts[h])
	}
	if n > 0 {
		st.GlobalMeanLatency = total / float64(n)
	}
	return st
}

// ScheduleStats summarizes a circuit schedule's per-slice graphs: degree,
// diameter, and pairwise direct-circuit coverage.
type ScheduleStats struct {
	Slices        int
	MaxDiameter   int
	MinDiameter   int
	MeanWait      float64 // mean slices until the next direct circuit
	CoveragePairs int     // pairs with at least one direct circuit per cycle
	TotalPairs    int
}

// Schedule computes ScheduleStats.
func Schedule(s *topo.Schedule) ScheduleStats {
	st := ScheduleStats{Slices: s.S, MinDiameter: 1 << 30}
	for sl := 0; sl < s.S; sl++ {
		d := s.SliceGraph(sl).Diameter()
		if d < 0 {
			d = s.N
		}
		if d > st.MaxDiameter {
			st.MaxDiameter = d
		}
		if d < st.MinDiameter {
			st.MinDiameter = d
		}
	}
	var waitSum float64
	var waits int
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if i == j {
				continue
			}
			st.TotalPairs++
			if len(s.DirectSlices(i, j)) > 0 {
				st.CoveragePairs++
			}
			for from := int64(0); from < int64(s.S); from++ {
				waitSum += float64(s.WaitSlices(i, j, from))
				waits++
			}
		}
	}
	if waits > 0 {
		st.MeanWait = waitSum / float64(waits)
	}
	return st
}
