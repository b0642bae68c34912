package harness

import "ucmp/internal/transport"

// ExtensionMPTCP compares single-path DCTCP with the MPTCP-style striped
// transport over UCMP's parallel paths (§10: "an adoption of MPTCP-like
// transport could benefit performance").
func ExtensionMPTCP(r *Runner, base SimConfig) (*Report, []*Result, error) {
	kinds := []transport.Kind{transport.DCTCP, transport.MPTCP}
	out, err := runVariants(r, exhibitConfig(base, "websearch"), kinds, func(c *SimConfig, k transport.Kind) {
		c.Transport = k
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Title: "Extension (§10): MPTCP-style subflows over parallel UCMP paths"}
	rep.Addf("%-14s %-10s %-10s %-10s %-12s", "transport", "<=100KB", "<=1MB", ">1MB", "efficiency")
	for i, res := range out {
		bins := res.Collector.BySize(coarseEdges)
		rep.Addf("%-14s %-10s %-10s %-10s %-12.3f",
			string(kinds[i]), fmtT(bins[1].AvgFCT), fmtT(bins[2].AvgFCT), fmtT(bins[3].AvgFCT), res.Efficiency)
	}
	return rep, out, nil
}
