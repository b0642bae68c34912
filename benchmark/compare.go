package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges B against A for one end-to-end metric. A change counts
// only beyond the metric's bound; when either side's own inter-quartile
// spread is wider than the bound, a change of that size cannot be told from
// noise and the row is unresolved.
func verdict(m metricDef, a, b summary) string {
	if a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Name == "setup_s" && math.Abs(b.Median-a.Median) < setupFloorS {
		return "same"
	}
	if math.Max(a.spread(), b.spread()) > m.Bound {
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric, B against
// the base A, then the simulated statistics that must repeat exactly when
// both records ran the same seed. It returns 1 on any `worse` or `changed`
// row or when B failed a larger share of its operations.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	return compareRecords(a, b, out)
}

func compareRecords(a, b record, out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "base A: %s (%s, seed %d)   B: %s (%s, seed %d)\n",
		a.Machine.Revision, a.Machine.CPUModel, a.Machine.Seed, b.Machine.Revision, b.Machine.CPUModel, b.Machine.Seed)
	fmt.Fprintf(out, "%-22s %-28s %12s %12s %-6s %16s %6s  %s\n", "workload", "metric", "A median", "B median", "unit", "B/A (base A)", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-22s missing from one record\n", w.Name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				code = 1
			}
			note := ""
			if v == "unresolved" {
				note = fmt.Sprintf(" (spread A %.1f%%, B %.1f%%)", 100*sa.spread(), 100*sb.spread())
			}
			fmt.Fprintf(out, "%-22s %-28s %12.6g %12.6g %-6s %16.4f %5.0f%%  %s%s\n",
				w.Name, m.Name, sa.Median, sb.Median, m.Unit, sb.Median/sa.Median, 100*m.Bound, v, note)
		}
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		v := "same"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Fprintf(out, "%-22s %-28s %12.6g %12.6g %-6s %16s %5.0f%%  %s\n", w.Name, "operations_failed_frac", fa, fb, "ratio", "-", 0.0, v)
		if a.Machine.Seed != b.Machine.Seed || a.Machine.Scale != b.Machine.Scale {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(out, "%-22s %-28s %12s %12s %-6s %16s %6s  changed\n", w.Name, "fingerprint", wa.Fingerprint[:8], wb.Fingerprint[:8], "", "-", "exact")
			code = 1
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			v := "same"
			if va != vb {
				v, code = "changed", 1
			}
			fmt.Fprintf(out, "%-22s %-28s %12.6g %12.6g %-6s %16s %6s  %s\n", w.Name, m.Name, va, vb, m.Unit, "-", "exact", v)
		}
	}
	return code
}
