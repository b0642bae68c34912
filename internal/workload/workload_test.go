package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ucmp/internal/sim"
)

func TestDistsValid(t *testing.T) {
	for _, d := range []*Dist{WebSearch(), DataMining()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	bad := &Dist{Name: "bad", Points: []CDFPoint{{100, 0.5}, {50, 1.0}}}
	if bad.Validate() == nil {
		t.Error("non-monotone distribution accepted")
	}
	bad2 := &Dist{Name: "bad2", Points: []CDFPoint{{100, 0.5}}}
	if bad2.Validate() == nil {
		t.Error("CDF not reaching 1 accepted")
	}
	empty := &Dist{Name: "empty"}
	if empty.Validate() == nil {
		t.Error("empty distribution accepted")
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*Dist{WebSearch(), DataMining()} {
		max := d.Points[len(d.Points)-1].Bytes
		for i := 0; i < 10000; i++ {
			s := d.Sample(rng)
			if s < 1 || s > max {
				t.Fatalf("%s: sample %d outside (0, %d]", d.Name, s, max)
			}
		}
	}
}

// The empirical mean of many samples should approach the analytic Mean().
func TestMeanMatchesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := WebSearch()
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	emp := sum / float64(n)
	ana := d.Mean()
	if ratio := emp / ana; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("empirical mean %.0f vs analytic %.0f (ratio %.2f)", emp, ana, ratio)
	}
}

// Web search is short-flow dominated; data mining is byte-dominated by
// >15MB flows (§7.1).
func TestWorkloadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := WebSearch()
	under15 := 0
	n := 50000
	for i := 0; i < n; i++ {
		if ws.Sample(rng) < 15<<20 {
			under15++
		}
	}
	if frac := float64(under15) / float64(n); frac < 0.9 {
		t.Fatalf("web search: only %.2f of flows under 15MB", frac)
	}
	dm := DataMining()
	var total, big float64
	for i := 0; i < n; i++ {
		s := float64(dm.Sample(rng))
		total += s
		if s >= 15<<20 {
			big += s
		}
	}
	if frac := big / total; frac < 0.5 {
		t.Fatalf("data mining: only %.2f of bytes from >=15MB flows", frac)
	}
}

func TestGeneratePoisson(t *testing.T) {
	cfg := PoissonConfig{
		Dist:        WebSearch(),
		NumHosts:    32,
		LinkBps:     40e9,
		Load:        0.4,
		Duration:    5 * sim.Millisecond,
		Seed:        1,
		HostsPerToR: 2,
	}
	flows := Generate(cfg)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	var bytes float64
	ids := map[int64]bool{}
	for _, f := range flows {
		if f.SrcHost == f.DstHost {
			t.Fatal("self flow")
		}
		if f.SrcHost/2 == f.DstHost/2 {
			t.Fatal("intra-rack flow despite HostsPerToR")
		}
		if f.Arrival < 0 || f.Arrival >= cfg.Duration {
			t.Fatalf("arrival %v outside window", f.Arrival)
		}
		if ids[f.ID] {
			t.Fatal("duplicate flow id")
		}
		ids[f.ID] = true
		bytes += float64(f.Size)
	}
	// Offered load should approximate the target within sampling noise.
	target := cfg.Load * float64(cfg.NumHosts) * float64(cfg.LinkBps) / 8 * cfg.Duration.Seconds()
	if ratio := bytes / target; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("offered bytes %.0f vs target %.0f (ratio %.2f)", bytes, target, ratio)
	}
}

// Determinism: the same seed yields the same flow set.
func TestGenerateDeterministic(t *testing.T) {
	cfg := PoissonConfig{Dist: WebSearch(), NumHosts: 16, LinkBps: 10e9, Load: 0.3, Duration: sim.Millisecond, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Size != b[i].Size || a[i].SrcHost != b[i].SrcHost || a[i].Arrival != b[i].Arrival {
			t.Fatalf("flow %d differs", i)
		}
	}
	cfg.Seed = 8
	c := Generate(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Size != c[i].Size {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical flow sets")
	}
}

func TestPermutation(t *testing.T) {
	flows := Permutation(8, 2, 1<<20, 100)
	if len(flows) != 8 {
		t.Fatalf("%d flows, want 8", len(flows))
	}
	for _, f := range flows {
		if f.SrcHost/2 == f.DstHost/2 {
			t.Fatalf("permutation flow %d->%d stays in rack", f.SrcHost, f.DstHost)
		}
		if f.DstHost != ((f.SrcHost/2+1)%4)*2+f.SrcHost%2 {
			t.Fatalf("unexpected pairing %d->%d", f.SrcHost, f.DstHost)
		}
	}
}

func TestMemcached(t *testing.T) {
	flows := Memcached([]int{1, 2, 3}, 0, 5, 4096, 100*sim.Microsecond, 1, 1000)
	if len(flows) != 15 {
		t.Fatalf("%d flows, want 15", len(flows))
	}
	for _, f := range flows {
		if !f.Priority {
			t.Fatal("memcached flows must be priority-tagged")
		}
		if f.SrcHost != 0 {
			t.Fatal("responses originate at the server")
		}
		if f.Size != 4096 {
			t.Fatal("response size wrong")
		}
	}
}

// Property: sampling never panics and is monotone in u (via direct inverse
// checks at the CDF points).
func TestSampleAtCDFPoints(t *testing.T) {
	d := WebSearch()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := d.Sample(rng)
		return s >= 1 && float64(s) <= float64(d.Points[len(d.Points)-1].Bytes)*1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d.Mean()) || d.Mean() <= 0 {
		t.Fatal("mean invalid")
	}
}

func TestFixedAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := Fixed(5000)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if s := f.Sample(rng); s < 4000 || s > 5000 {
			t.Fatalf("fixed sample %d", s)
		}
	}
	u := Uniform(1000, 1_000_000)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := false, false
	for i := 0; i < 5000; i++ {
		s := u.Sample(rng)
		if s < 1 || s > 1_000_000 {
			t.Fatalf("uniform sample %d out of range", s)
		}
		if s < 10_000 {
			lo = true
		}
		if s > 100_000 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatal("uniform distribution degenerate")
	}
}

// A rate that is not positive and finite would generate flows without end
// (the arrival clock walks backwards, or never moves): Generate refuses it.
func TestGenerateRefusesNonPositiveRate(t *testing.T) {
	for _, load := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "arrival rate") {
					t.Errorf("Load %g: recovered %v, want the arrival-rate refusal", load, r)
				}
			}()
			Generate(PoissonConfig{Dist: WebSearch(), NumHosts: 32, LinkBps: 40e9, Load: load, Duration: sim.Millisecond, Seed: 1})
		}()
	}
}
