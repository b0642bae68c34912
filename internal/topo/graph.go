package topo

import "slices"

// Graph is a static snapshot of the ToR-level connectivity in one time
// slice: an undirected (multi-)graph given by adjacency lists. It backs the
// KSP and Opera baselines and the diameter computation of Appendix B.
type Graph struct {
	N   int
	Adj [][]int
}

// SliceGraph returns the graph realized by all D matchings of cyclic slice.
// Duplicate edges (two switches connecting the same pair) are collapsed.
func (s *Schedule) SliceGraph(slice int) *Graph {
	g := &Graph{N: s.N, Adj: make([][]int, s.N)}
	for i := 0; i < s.N; i++ {
		g.Adj[i] = s.Neighbors(make([]int, 0, s.D), slice, i)
	}
	return g
}

// StableSliceGraph returns the Opera stable subgraph for the cyclic slice:
// the circuits of every switch except those that reconfigure at the next
// slice boundary. Packets routed on these circuits are never in flight
// during a reconfiguration (§2.2). For the staggered Opera schedule this
// removes 1/d of the circuits; for a fully reconfigurable schedule it would
// remove everything, so callers should pair this with the Opera schedule.
func (s *Schedule) StableSliceGraph(slice int) *Graph {
	next := (slice + 1) % s.S
	g := &Graph{N: s.N, Adj: make([][]int, s.N)}
	for i := 0; i < s.N; i++ {
		var adj []int
		for sw := 0; sw < s.D; sw++ {
			if s.reconf[next][sw] {
				continue // this switch's circuits vanish at the boundary
			}
			p := s.PeerOf(slice, i, sw)
			dup := false
			for _, q := range adj {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				adj = append(adj, p)
			}
		}
		g.Adj[i] = adj
	}
	return g
}

// BFS returns hop distances from src to every node (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	return g.BFSInto(src, make([]int, g.N), make([]int, 0, g.N))
}

// BFSInto is BFS on the caller's scratch, for callers that search many
// times: it overwrites dist (length g.N) and returns it, and uses queue
// (capacity g.N is never outgrown) as its work list.
func (g *Graph) BFSInto(src int, dist, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path src->dst as a node sequence
// (including both endpoints), or nil if unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if prev[v] < 0 {
				prev[v] = u
				if v == dst {
					return buildPath(prev, src, dst)
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
}

func buildPath(prev []int, src, dst int) []int {
	var rev []int
	for v := dst; v != src; v = prev[v] {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Diameter returns the maximum finite BFS distance over all pairs, or -1 if
// the graph is disconnected.
func (g *Graph) Diameter() int {
	d, _ := g.diameterInto(nil)
	return d
}

// diameterInto is Diameter as a breadth-first search from every source at
// once, on the caller's bitset scratch (grown as needed and returned). After
// round r, the set of ToR v holds every ToR within r hops of it: its own set
// ORed with its neighbours' sets of round r−1. The diameter is the first
// round in which every set is full; a round that adds nothing to any set
// means some ToR never reaches another, and the answer is −1.
func (g *Graph) diameterInto(buf []uint64) (int, []uint64) {
	n, w := g.N, (g.N+63)/64
	if cap(buf) < 2*n*w {
		buf = make([]uint64, 2*n*w)
	}
	cur, next := buf[:n*w], buf[n*w:2*n*w]
	clear(cur)
	for v := 0; v < n; v++ {
		cur[v*w+v/64] |= 1 << (v % 64)
	}
	// A full set is w−1 all-ones words and a last word with n's tail bits.
	tail := ^uint64(0)
	if n%64 != 0 {
		tail = 1<<(n%64) - 1
	}
	for round := 0; ; round++ {
		full := true
		for v := 0; v < n && full; v++ {
			full = isFull(cur[v*w:(v+1)*w], tail)
		}
		if full {
			return round, buf
		}
		grew := false
		for v := 0; v < n; v++ {
			set, old := next[v*w:(v+1)*w], cur[v*w:(v+1)*w]
			copy(set, old)
			for _, u := range g.Adj[v] {
				for i, x := range cur[u*w : (u+1)*w] {
					set[i] |= x
				}
			}
			if !grew && !slices.Equal(set, old) {
				grew = true
			}
		}
		if !grew {
			return -1, buf
		}
		cur, next = next, cur
	}
}

// isFull reports whether a reach set holds every ToR: all words but the
// last all ones, the last equal to tail.
func isFull(set []uint64, tail uint64) bool {
	last := len(set) - 1
	for _, x := range set[:last] {
		if x != ^uint64(0) {
			return false
		}
	}
	return set[last] == tail
}

// MaxDiameter returns h_static (Appendix B): the maximum diameter over all
// per-slice topology instances of the schedule. Disconnected instances
// contribute the node count as a conservative bound.
func (s *Schedule) MaxDiameter() int {
	max := 0
	var buf []uint64
	for sl := 0; sl < s.S; sl++ {
		var d int
		d, buf = s.SliceGraph(sl).diameterInto(buf)
		if d < 0 {
			d = s.N
		}
		if d > max {
			max = d
		}
	}
	return max
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// using Yen's algorithm over unit edge weights. Paths are ordered by hop
// count, then by discovery order. The baseline KSP routing (§2.2) uses this
// per slice graph instance. A caller that asks for many pairs keeps one
// YenScratch and calls KShortestPathsWith.
func (g *Graph) KShortestPaths(src, dst, k int) [][]int {
	return g.KShortestPathsWith(new(YenScratch), src, dst, k)
}

// YenScratch is the search state KShortestPathsWith reuses from one call to
// the next, on any graph: the breadth-first search's predecessor array and
// visited marks (epoch-stamped, so starting a search clears nothing), its
// queue, the spur node's ban list and the path under construction. The zero
// value is ready; one scratch serves one goroutine.
type YenScratch struct {
	prev  []int32
	seen  []uint32 // v was reached, or is closed to this search, iff seen[v] == epoch
	epoch uint32
	queue []int32
	ban   []int // neighbours the spur node may not step to
	path  []int // root path, then the spur path found
}

// KShortestPathsWith is KShortestPaths on the caller's scratch.
func (g *Graph) KShortestPathsWith(sc *YenScratch, src, dst, k int) [][]int {
	if len(sc.seen) < g.N {
		sc.prev, sc.seen, sc.epoch = make([]int32, g.N), make([]uint32, g.N), 0
	}
	sc.ban = sc.ban[:0]
	if k <= 0 || !sc.search(g, src, dst, nil) {
		return nil
	}
	paths := [][]int{append([]int(nil), sc.path...)}
	var candidates [][]int
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			root := last[:i+1]
			// A path found so far that shares the root bans the edge it left
			// the spur node by; every banned edge leaves the spur node, so the
			// ban list is the far ends. The root's nodes before the spur node
			// are closed to the search.
			sc.ban = sc.ban[:0]
			for _, p := range paths {
				if equalPrefix(p, root) {
					sc.ban = append(sc.ban, p[i+1])
				}
			}
			if !sc.search(g, last[i], dst, root[:i]) {
				continue
			}
			if !containsPath(paths, sc.path) && !containsPath(candidates, sc.path) {
				candidates = append(candidates, append([]int(nil), sc.path...))
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pick the shortest candidate, the earliest found among equals.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if len(candidates[i]) < len(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

// search finds a shortest path from src to dst that visits no node of root
// and does not leave src for a node of sc.ban, breadth first in adjacency
// order. It leaves root followed by the path in sc.path and reports whether
// there is one.
func (sc *YenScratch) search(g *Graph, src, dst int, root []int) bool {
	sc.path = append(sc.path[:0], root...)
	if src == dst {
		sc.path = append(sc.path, src)
		return true
	}
	if sc.epoch++; sc.epoch == 0 { // wrapped: old marks would read as current
		clear(sc.seen)
		sc.epoch = 1
	}
	epoch := sc.epoch
	for _, v := range root {
		sc.seen[v] = epoch
	}
	sc.seen[src] = epoch
	q := append(sc.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := int(q[head])
		for _, v := range g.Adj[u] {
			if sc.seen[v] == epoch || (u == src && slices.Contains(sc.ban, v)) {
				continue
			}
			sc.seen[v] = epoch
			sc.prev[v] = int32(u)
			if v == dst {
				hops := 0
				for w := dst; w != src; w = int(sc.prev[w]) {
					hops++
				}
				at := len(sc.path) + hops
				sc.path = append(sc.path, make([]int, hops+1)...)
				for w := dst; w != src; w = int(sc.prev[w]) {
					sc.path[at] = w
					at--
				}
				sc.path[at] = src
				sc.queue = q
				return true
			}
			q = append(q, int32(v))
		}
	}
	sc.queue = q
	return false
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsPath(paths [][]int, p []int) bool {
	for _, q := range paths {
		if len(q) != len(p) {
			continue
		}
		same := true
		for i := range q {
			if q[i] != p[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
