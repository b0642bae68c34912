package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

// viewFingerprint is FNV-1a over everything a path set's views report for
// the given sources, slot by slot: per entry the hop count, latency and path
// count, per path every absolute (To, Slice) hop — the implied last one
// included — and the group's thresholds. It reads through View alone, so it
// pins behaviour, not bytes: the store may change how it holds a hop and
// keep every fingerprint.
func viewFingerprint(ps *core.PathSet, srcs []int) uint64 {
	h := fnv.New64a()
	var b []byte
	var path core.Path
	put := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	n, s := ps.F.Sched.N, ps.F.Sched.S
	for ts := 0; ts < s; ts++ {
		for _, src := range srcs {
			for dst := 0; dst < n; dst++ {
				g := ps.View(ts, src, dst)
				put(int64(g.NumEntries()))
				for i := 0; i < g.NumEntries(); i++ {
					e := g.Entry(i)
					put(int64(e.HopCount))
					put(e.LatencySlices)
					put(int64(e.NumPaths))
					for j := 0; j < e.NumPaths; j++ {
						e.Path(j).Fill(&path)
						for _, hop := range path.Hops {
							put(int64(hop.To))
							put(hop.Slice)
						}
					}
				}
				if g.NumEntries() > 0 {
					for _, thr := range g.Thresholds() {
						put(int64(math.Float64bits(thr)))
					}
				}
				h.Write(b)
				b = b[:0]
			}
		}
	}
	return h.Sum64()
}

// TestStoreViewFingerprint pins what every store reports through its views
// on the brute-force, symmetric and baseline builds. Brute-force stores are
// read from every source; the symmetric ones from sources 0 (every
// canonical slot) and three rotated ones.
func TestStoreViewFingerprint(t *testing.T) {
	fabric := func(cfg topo.Config, n, d int, kind string) *topo.Fabric {
		cfg.NumToRs, cfg.Uplinks = n, d
		return topo.MustFabric(cfg, kind, 1)
	}
	brute := func(f *topo.Fabric) *core.PathSet {
		return core.BuildPathSetOpts(f, 0.5, core.BuildOptions{NoSymmetry: true})
	}
	cases := []struct {
		name  string
		sym   bool
		build func() *core.PathSet
		want  string
	}{
		{"brute round-robin (108,6)", false, func() *core.PathSet {
			return brute(fabric(topo.PaperDefault(), 108, 6, "round-robin"))
		}, "303e18bed495091e"},
		{"random (64,4)", false, func() *core.PathSet {
			return core.BuildPathSet(fabric(topo.Scaled(), 64, 4, "random"), 0.5)
		}, "cc8a64fd0ffcc85e"},
		{"brute opera (108,6)", false, func() *core.PathSet {
			return brute(fabric(topo.PaperDefault(), 108, 6, "opera"))
		}, "4a9829d3288a5172"},
		{"symmetric round-robin (256,8)", true, func() *core.PathSet {
			return core.BuildPathSet(fabric(topo.Scaled(), 256, 8, "round-robin"), 0.5)
		}, "c5677bcd6b257ff9"},
		{"circulant opera (256,8)", true, func() *core.PathSet {
			return core.BuildPathSet(fabric(topo.Scaled(), 256, 8, "opera"), 0.5)
		}, "a2374fc1c8dd38cf"},
		{"ksp-5 (16,3)", false, func() *core.PathSet {
			return core.BuildKSPPathSet(fabric(topo.Scaled(), 16, 3, "round-robin"), 5, false)
		}, "1156d37dbbaff58e"},
		{"opera-5 (16,3)", false, func() *core.PathSet {
			return core.BuildKSPPathSet(fabric(topo.Scaled(), 16, 3, "opera"), 5, true)
		}, "0b4e34a79395d205"},
	}
	for _, c := range cases {
		ps := c.build()
		if ps.Symmetric() != c.sym {
			t.Fatalf("%s: Symmetric() = %v", c.name, ps.Symmetric())
		}
		n := ps.F.Sched.N
		srcs := []int{0, 1, n/2 - 1, n - 1}
		if !c.sym {
			srcs = srcs[:0]
			for src := 0; src < n; src++ {
				srcs = append(srcs, src)
			}
		}
		if got := fmt.Sprintf("%016x", viewFingerprint(ps, srcs)); got != c.want {
			t.Errorf("%s: view fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
