package ucmp_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// BenchmarkFabricColdVsWarm measures the warm-fabric cache end to end at
// scale (DESIGN.md §11): one cold iteration builds the symmetric path set
// and saves the fabric file; each warm iteration loads it — map, checksum,
// decode — into a path set of its own. The cold-s and warm-s metrics are
// the README's "warm fabrics" numbers, file-MB the file's size; the store
// fingerprint and a ToR-0 table compiled from the loaded path set keep the
// benchmark honest about warm == cold. Run with -benchtime 1x: the cold
// iteration is a few seconds at N=1024, and the cache file makes every
// further iteration measure only the warm path.
func BenchmarkFabricColdVsWarm(b *testing.B) {
	for _, n := range []int{512, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := topo.Scaled()
			cfg.NumToRs, cfg.Uplinks = n, 8
			fab := topo.MustFabric(cfg, "round-robin", 1)
			params := fabriccache.Params{Alpha: 0.5}
			path := fabriccache.FileName(b.TempDir(), fab, params)

			t0 := time.Now()
			ps := core.BuildPathSet(fab, 0.5)
			cold := time.Since(t0).Seconds()
			if err := fabriccache.Save(path, ps, nil); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			want := core.StoreFingerprint(ps)

			var warm float64
			var wf *fabriccache.Fabric
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 = time.Now()
				wf, err = fabriccache.Load(path, fab, params, fabriccache.Options{})
				if err != nil {
					b.Fatal(err)
				}
				warm = time.Since(t0).Seconds()
				if core.StoreFingerprint(wf.PS) != want {
					b.Fatal("warm store differs from cold")
				}
			}
			b.StopTimer()
			w := routing.CompileTable(wf.PS, core.NewFlowAger(wf.PS), 0)
			c := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
			if !bytes.Equal(w.Bytes(), c.Bytes()) {
				b.Fatal("ToR 0's table compiled from the warm path set differs from cold")
			}
			b.ReportMetric(cold, "cold-s")
			b.ReportMetric(warm, "warm-s")
			b.ReportMetric(cold/warm, "speedup")
			b.ReportMetric(float64(st.Size())/1e6, "file-MB")
		})
	}
}
