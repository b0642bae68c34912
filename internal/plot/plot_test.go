package plot

import (
	"strings"
	"testing"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("length: %q", s)
	}
	rs := []rune(s)
	if rs[0] != '▁' || rs[3] != '█' {
		t.Fatalf("scaling wrong: %q", s)
	}
	// Constant series renders without panicking.
	c := Sparkline([]float64{5, 5, 5})
	if len([]rune(c)) != 3 {
		t.Fatalf("constant: %q", c)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input")
	}
}

func TestBar(t *testing.T) {
	b := Bar("x", 0.5, 1.0, 10)
	if !strings.Contains(b, "█████") {
		t.Fatalf("half bar: %q", b)
	}
	if !strings.Contains(b, "0.500") {
		t.Fatalf("value missing: %q", b)
	}
	// Overflow clamps.
	b2 := Bar("y", 5, 1, 4)
	if strings.Count(b2, "█") != 4 {
		t.Fatalf("overflow: %q", b2)
	}
	// Zero max.
	b3 := Bar("z", 1, 0, 4)
	if strings.Count(b3, "█") != 0 {
		t.Fatalf("zero max: %q", b3)
	}
}

func TestBarChart(t *testing.T) {
	rows := BarChart([]string{"a", "b"}, []float64{1, 2}, 8)
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	if strings.Count(rows[1], "█") != 8 {
		t.Fatalf("max bar not full: %q", rows[1])
	}
	if strings.Count(rows[0], "█") != 4 {
		t.Fatalf("half bar: %q", rows[0])
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	probs := make([]float64, len(xs))
	for i := range xs {
		probs[i] = float64(i+1) / 10
	}
	rows := CDF(xs, probs, 4, 20)
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	if !strings.Contains(rows[3], "p100") && !strings.Contains(rows[3], "10.0") {
		t.Fatalf("tail row: %q", rows[3])
	}
	if CDF(nil, nil, 4, 10) != nil {
		t.Fatal("empty input")
	}
}
