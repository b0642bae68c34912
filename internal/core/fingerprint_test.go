package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// TestBruteStoreFingerprint pins the bytes of the brute-force build. The
// kernel, the packer and h_static may get faster; what they store may not
// move. The (108,6) store is hashed whole at one and two workers; outside
// -short, the (324,12) build's ToR-0 compiled table must keep the
// fingerprint the repository benchmark's offline324 workload reports.
func TestBruteStoreFingerprint(t *testing.T) {
	const want108 = "af501807fe292718"
	f := topo.MustFabric(topo.PaperDefault(), "round-robin", 1)
	for _, w := range []int{1, 2} {
		ps := core.BuildPathSetOpts(f, 0.5, core.BuildOptions{Workers: w})
		if ps.Symmetric() {
			t.Fatal("(108,6) took the symmetric build")
		}
		if got := fmt.Sprintf("%016x", core.StoreFingerprint(ps)); got != want108 {
			t.Fatalf("(108,6) workers=%d: store fingerprint %s, want %s", w, got, want108)
		}
	}
	if testing.Short() {
		t.Skip("the (324,12) build")
	}
	cfg := topo.PaperDefault()
	cfg.NumToRs, cfg.Uplinks = 324, 12
	ps := core.BuildPathSet(topo.MustFabric(cfg, "round-robin", 1), 0.5)
	h := fnv.New64a()
	h.Write(routing.CompileTable(ps, core.NewFlowAger(ps), 0).Bytes())
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "727500513d9dd12c"; got != want {
		t.Fatalf("(324,12) ToR-0 compiled table fingerprint %s, want %s", got, want)
	}
}
