// Package plot renders small ASCII charts for the experiment reports:
// CDF curves (Fig 13-style), horizontal bar charts (Fig 5b/6c-style), and
// sparklines for time series (Fig 7-style). Pure text, no dependencies.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// blocks are eighth-height bar glyphs for sparklines.
var blocks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as unicode block glyphs, scaled to [min,max].
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// Bar renders one labeled horizontal bar scaled against max.
func Bar(label string, value, max float64, width int) string {
	if width < 1 {
		width = 1
	}
	n := 0
	if max > 0 {
		n = int(value / max * float64(width))
	}
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return fmt.Sprintf("%-14s %s%s %.3f", label,
		strings.Repeat("█", n), strings.Repeat("·", width-n), value)
}

// BarChart renders labeled values as horizontal bars, widest = max value.
func BarChart(labels []string, values []float64, width int) []string {
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make([]string, 0, len(values))
	for i, v := range values {
		out = append(out, Bar(labels[i], v, max, width))
	}
	return out
}

// CDF renders a cumulative distribution as rows of (x, prob, bar),
// downsampled to at most `rows` points. xs must be sorted ascending with
// probs in step.
func CDF(xs []float64, probs []float64, rows, width int) []string {
	if len(xs) == 0 {
		return nil
	}
	if rows < 2 {
		rows = 2
	}
	out := make([]string, 0, rows)
	for r := 0; r < rows; r++ {
		target := float64(r+1) / float64(rows)
		i := sort.SearchFloat64s(probs, target)
		if i >= len(xs) {
			i = len(xs) - 1
		}
		n := int(probs[i] * float64(width))
		if n > width {
			n = width
		}
		out = append(out, fmt.Sprintf("p%02.0f %10.1f |%s%s|",
			probs[i]*100, xs[i], strings.Repeat("█", n), strings.Repeat(" ", width-n)))
	}
	return out
}
