package harness

import "testing"

func TestAblationPolicy(t *testing.T) {
	rep, out, err := AblationPolicy(nil, quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatal("missing variants")
	}
	full, latOnly, hopsOnly := out[0], out[1], out[2]
	// hops-only must not beat full UCMP's efficiency by definition... it can
	// equal it; latency-only must not exceed full's efficiency.
	if latOnly.Efficiency > full.Efficiency+0.02 {
		t.Errorf("latency-only efficiency %.3f above full %.3f", latOnly.Efficiency, full.Efficiency)
	}
	if hopsOnly.Efficiency+0.02 < full.Efficiency {
		t.Errorf("hops-only efficiency %.3f below full %.3f", hopsOnly.Efficiency, full.Efficiency)
	}
	_ = rep.String()
}

func TestAblationParallel(t *testing.T) {
	rep, out, err := AblationParallel(nil, quickBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatal("missing variants")
	}
	_ = rep.String()
}

func TestAblationSchedule(t *testing.T) {
	rep := AblationSchedule(108, 6)
	if len(rep.Lines) < 3 {
		t.Fatal("missing rows")
	}
	_ = rep.String()
}
