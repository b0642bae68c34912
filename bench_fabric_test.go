package ucmp_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/fabriccache"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// BenchmarkFabricColdVsWarm measures the warm-fabric cache end to end at
// scale (DESIGN.md §14): one cold iteration builds the symmetric path set,
// compiles ToR 0's table, and saves the fabric file; each warm iteration
// mmap-loads and validates it. The cold-s and warm-s metrics are the
// README's "warm fabrics" numbers; the byte-compare keeps the benchmark
// honest about warm == cold. Run with -benchtime 1x: the cold iteration
// (build, compile, save) is a few seconds at N=1024, and the cache file
// makes every further iteration measure only the warm path.
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
			table := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
			cold := time.Since(t0).Seconds()
			if err := fabriccache.Save(path, ps, table); err != nil {
				b.Fatal(err)
			}
			want := table.Bytes()

			var warm float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 = time.Now()
				wf, err := fabriccache.Load(path, fab, params, fabriccache.Options{})
				if err != nil {
					b.Fatal(err)
				}
				warm = time.Since(t0).Seconds()
				if !bytes.Equal(wf.Table.Bytes(), want) {
					b.Fatal("warm table differs from cold")
				}
				wf.Close()
			}
			b.ReportMetric(cold, "cold-s")
			b.ReportMetric(warm, "warm-s")
			b.ReportMetric(cold/warm, "speedup")
		})
	}
}
