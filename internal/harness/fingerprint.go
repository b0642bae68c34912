package harness

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Fingerprint renders everything a run computes — every nonzero fabric
// counter, fairness, efficiency, the launch count, and each flow's progress
// and completion — as one string, so "the same run" is a bytewise
// comparison. Counters are written by name, one name=value line each,
// sorted, and a counter that reads zero is left out: a counter added or
// removed while it reads zero moves no fingerprint, and every counter that
// counts is in it. The event count is not part of it: it is how the
// simulator spent its work, not a result, and a sharded run executes one
// slice-boundary event per domain where the serial run executes one.
func Fingerprint(r *Result) string {
	var b strings.Builder
	for _, line := range counterLines(r) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "jain=%.12f\nefficiency=%.12f\nlaunched=%d\n", r.JainCumulative, r.Efficiency, r.Launched)
	fl := append(r.Flows[:0:0], r.Flows...)
	sort.Slice(fl, func(i, j int) bool { return fl[i].ID < fl[j].ID })
	for _, f := range fl {
		fmt.Fprintf(&b, "flow %d: sent=%d delivered=%d finished=%v at=%d\n",
			f.ID, f.BytesSent, f.BytesDelivered, f.Finished, int64(f.FinishedAt))
	}
	return b.String()
}

// counterLines lists r's nonzero counters as sorted name=value lines; an
// array counter (a histogram) contributes one name[i]=value line per
// nonzero bucket.
func counterLines(r *Result) []string {
	v := reflect.ValueOf(r.Counters)
	var lines []string
	for i := range v.NumField() {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			if n := f.Int(); n != 0 {
				lines = append(lines, fmt.Sprintf("%s=%d", name, n))
			}
		case reflect.Array:
			for j := range f.Len() {
				if n := f.Index(j).Int(); n != 0 {
					lines = append(lines, fmt.Sprintf("%s[%d]=%d", name, j, n))
				}
			}
		default:
			panic(fmt.Sprintf("harness: counter %s of kind %v has no fingerprint form", name, f.Kind()))
		}
	}
	sort.Strings(lines)
	return lines
}
