package harness

import "testing"

// TestExtensionMPTCP checks MPTCP's reason to exist: striping a flow over
// UCMP's parallel paths brings the > 1 MB mean FCT below single-path
// DCTCP's. It must hold on at least two of seeds 1–3, and all three run.
func TestExtensionMPTCP(t *testing.T) {
	wins := 0
	for seed := int64(1); seed <= 3; seed++ {
		base := quickBase()
		base.Seed = seed
		rep, out, err := ExtensionMPTCP(nil, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatal("missing variants")
		}
		for _, res := range out {
			if res.CompletionRate < 0.6 {
				t.Errorf("seed %d: completion %.2f too low", seed, res.CompletionRate)
			}
		}
		dctcp, mptcp := out[0].Collector.BySize(coarseEdges)[3], out[1].Collector.BySize(coarseEdges)[3]
		if dctcp.Count == 0 || mptcp.Count == 0 {
			t.Fatalf("seed %d: no > 1 MB flow finished (dctcp %d, mptcp %d)", seed, dctcp.Count, mptcp.Count)
		}
		t.Logf("seed %d: > 1 MB mean FCT dctcp %v, mptcp %v", seed, dctcp.AvgFCT, mptcp.AvgFCT)
		if mptcp.AvgFCT < dctcp.AvgFCT {
			wins++
		}
		_ = rep.String()
	}
	if wins < 2 {
		t.Errorf("MPTCP lowered the > 1 MB mean FCT on %d of 3 seeds, want at least 2", wins)
	}
}
