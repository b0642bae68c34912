package testbed

import (
	"testing"

	"ucmp/internal/harness"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

func TestConfigShape(t *testing.T) {
	cfg := Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumToRs != 8 || cfg.Uplinks != 4 || cfg.HostsPerToR != 1 {
		t.Fatalf("testbed shape %+v", cfg)
	}
	if cfg.UplinkRate() != 10e9 || cfg.LinkBps != 100e9 {
		t.Fatal("oversubscription not modeled")
	}
	if cfg.DutyCycle() != 0.98 {
		t.Fatalf("duty cycle %v, want 0.98 (50us slice, 1us reconf)", cfg.DutyCycle())
	}
}

func quickOpts() Options {
	return Options{Requests: 8, Horizon: 15 * sim.Millisecond, Background: 1 << 20, Seed: 1}
}

func TestRunUCMP(t *testing.T) {
	out, err := RunSchemes(nil, []harness.Scheme{{Name: "ucmp", Routing: harness.UCMP, Transport: transport.TCP}}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	res := out[0]
	if res.Completion < 0.8 {
		t.Fatalf("completion %.2f", res.Completion)
	}
	if len(res.FCTs) != len(res.Probs) {
		t.Fatal("CDF lengths differ")
	}
	for i := 1; i < len(res.FCTs); i++ {
		if res.FCTs[i] < res.FCTs[i-1] || res.Probs[i] < res.Probs[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if res.P99 < res.P50 {
		t.Fatal("p99 below p50")
	}
}

func TestFig13Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme testbed run")
	}
	_, results, err := RunAll(nil, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Result{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	// Paper ordering on the testbed (Fig 13): UCMP clearly beats VLB's
	// circuit-waiting latency for the memcached foreground.
	if byName["ucmp"].P50 >= byName["vlb"].P50 {
		t.Errorf("UCMP p50 %v not below VLB %v", byName["ucmp"].P50, byName["vlb"].P50)
	}
	for _, r := range results {
		if r.Completion < 0.5 {
			t.Errorf("%s completion %.2f", r.Scheme, r.Completion)
		}
	}
}
