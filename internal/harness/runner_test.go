package harness

import (
	"reflect"
	"strings"
	"testing"

	"ucmp/internal/core"
	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
	"ucmp/internal/transport"
)

// tinyBase is a run short enough to simulate several times per test.
func tinyBase() SimConfig {
	cfg := quickBase()
	cfg.Duration, cfg.Horizon = 200*sim.Microsecond, sim.Millisecond
	return cfg
}

// A Runner simulates each distinct configuration once: a config repeated
// inside one batch, or in a later batch, gets the first run's Result, which
// keeps no Flows (they would hold the whole run's network).
func TestRunnerSimulatesEachConfigOnce(t *testing.T) {
	base := tinyBase()
	other := base
	other.Alpha = 0.7
	for _, workers := range []int{1, 3} {
		r := &Runner{Workers: workers}
		out, err := r.Run([]SimConfig{base, other, base})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != out[2] || out[0] == out[1] || out[0].Events == 0 {
			t.Fatalf("workers=%d: batch results %p %p %p, want the duplicate to share the first's run", workers, out[0], out[1], out[2])
		}
		if out[0].Flows != nil || out[1].Flows != nil {
			t.Fatalf("workers=%d: a memoized Result kept its Flows", workers)
		}
		again, err := r.Run([]SimConfig{other, base})
		if err != nil {
			t.Fatal(err)
		}
		if again[0] != out[1] || again[1] != out[0] {
			t.Fatalf("workers=%d: a repeated config was simulated again", workers)
		}
	}
}

// A nil Runner keeps no memo, and explicit flow lists — which a run
// mutates — bypass any Runner's memo.
func TestRunnerNilAndExplicitFlowsSimulateEveryCall(t *testing.T) {
	base := tinyBase()
	var nilRunner *Runner
	out, err := nilRunner.Run([]SimConfig{base, base})
	if err != nil {
		t.Fatal(err)
	}
	again, err := nilRunner.Run([]SimConfig{base})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == out[1] || again[0] == out[0] {
		t.Fatal("a nil Runner reused a Result")
	}
	flows := func() SimConfig {
		cfg := base
		cfg.Flows = []*netsim.Flow{netsim.NewFlow(1, 0, 3, 1<<16, 0)}
		return cfg
	}
	r := &Runner{}
	out, err = r.Run([]SimConfig{flows(), flows()})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == out[1] || out[0].Launched != 1 {
		t.Fatal("explicit-flow configs shared a Result")
	}
}

// withPoissonFlows is cfg with its Poisson workload as an explicit flow
// list: the run simulates what cfg's would, but keeps its Flows for
// fingerprint and stays outside a Runner's memo, not outside its store.
func withPoissonFlows(t *testing.T, cfg SimConfig) SimConfig {
	t.Helper()
	flows, err := poissonFlows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Flows = flows
	return cfg
}

// A Runner's store holds one path set per key: asking again — on a fresh
// fabric, with a different seed, transport or load — returns the same
// pointer warm, MaxParallel 0 and the default cap are one key, and α,
// MaxParallel, the slice duration, k and the scheme each make a key of
// their own.
func TestRunnerPathSetStore(t *testing.T) {
	r := &Runner{}
	get := func(cfg SimConfig) (*core.PathSet, PathSetInfo) {
		t.Helper()
		fab, err := newFabricFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := r.pathSet(fab, cfg)
		return p.ps, p.info
	}
	base := tinyBase()
	variants := map[string]func(*SimConfig){
		"base":          func(*SimConfig) {},
		"alpha":         func(c *SimConfig) { c.Alpha = 0.7 },
		"MaxParallel":   func(c *SimConfig) { c.MaxParallel = 1 },
		"SliceDuration": func(c *SimConfig) { c.Topo.SliceDuration *= 2 },
		"ksp1":          func(c *SimConfig) { c.Routing = KSP1 },
		"ksp5":          func(c *SimConfig) { c.Routing = KSP5 },
		"opera1":        func(c *SimConfig) { c.Routing = Opera1 },
		"opera5":        func(c *SimConfig) { c.Routing = Opera5 },
	}
	built := map[*core.PathSet]string{}
	for name, set := range variants {
		cfg := base
		set(&cfg)
		ps, info := get(cfg)
		if info.Warm || info.Groups == 0 {
			t.Fatalf("%s: first request reports %q, want a cold build", name, info)
		}
		if other, ok := built[ps]; ok {
			t.Fatalf("%s and %s share a store entry", name, other)
		}
		built[ps] = name
		same := cfg
		same.Seed, same.Transport, same.Load = 99, transport.NDP, 0.7
		if again, info := get(same); again != ps || !info.Warm {
			t.Fatalf("%s: a repeat request got %p (warm %v), want the stored %p", name, again, info.Warm, ps)
		}
	}
	def := base
	def.MaxParallel = core.DefaultMaxParallel
	if ps, _ := get(def); built[ps] != "base" {
		t.Fatal("MaxParallel 0 and the default cap built two path sets")
	}
}

// Workers sharing a key wait for its one build: of six concurrent runs
// reading one path set, one builds it and five are served from the store.
func TestRunnerBuildsSharedPathSetOnce(t *testing.T) {
	cfgs := make([]SimConfig, 6)
	for i := range cfgs {
		cfgs[i] = tinyBase()
		cfgs[i].Seed = int64(i + 1)
	}
	out, err := (&Runner{Workers: 3}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, res := range out {
		if !res.PathSet.Warm {
			cold++
		}
	}
	if cold != 1 {
		t.Fatalf("%d of %d runs built the shared path set, want 1", cold, len(out))
	}
}

// A run served from the store is the run a nil Runner builds for itself,
// for UCMP and for the KSP and Opera baselines.
func TestStoreServedRunMatchesNilRunner(t *testing.T) {
	for _, rk := range []RoutingKind{UCMP, KSP5, Opera5} {
		cfg := tinyBase()
		cfg.Routing = rk
		second := cfg
		second.Seed = 2
		out, err := new(Runner).Run([]SimConfig{withPoissonFlows(t, cfg), withPoissonFlows(t, second)})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].PathSet.Warm || !out[1].PathSet.Warm {
			t.Fatalf("%s: warm = %v, %v; want the second run served from the first's build", rk, out[0].PathSet.Warm, out[1].PathSet.Warm)
		}
		ref, err := Run(withPoissonFlows(t, second))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := withEvents(out[1]), withEvents(ref); got != want {
			t.Fatalf("%s: store-served run diverges from a nil-Runner run:\n--- nil Runner ---\n%s\n--- store ---\n%s", rk, want, got)
		}
	}
}

// When several configs of a batch fail, Run reports the lowest-index
// failure, serially and over workers alike.
func TestRunnerReportsLowestIndexError(t *testing.T) {
	badPin, badTransport := tinyBase(), tinyBase()
	badPin.PinPolicy = "nonsense"
	badTransport.Transport = "nonsense"
	for _, workers := range []int{1, 3} {
		r := &Runner{Workers: workers}
		_, err := r.Run([]SimConfig{tinyBase(), badPin, badTransport})
		if err == nil || !strings.Contains(err.Error(), "pin policy") {
			t.Fatalf("workers=%d: error %v, want the index-1 pin-policy error", workers, err)
		}
	}
}

// configKey names a Runner's memo entries and checkpoint files, so every
// SimConfig field that shapes a run must change it. The walk covers every
// field, nested ones included; a field added without a key entry fails here
// unless it is listed below with the reason it cannot shape a run.
func TestConfigKeyNamesEveryField(t *testing.T) {
	excluded := map[string]string{
		"FabricCacheDir":  "a cache-loaded path set is byte-identical to a cold-built one",
		"CheckpointDir":   "taking snapshots never perturbs a run",
		"CheckpointEvery": "taking snapshots never perturbs a run",
		"Resume":          "a resumed run is bit-identical to an uninterrupted one",
		"Flows":           "digested from the flow list passed beside the config",
	}
	zero := configKey(SimConfig{}, nil)
	var walk func(idx []int, name string, ft reflect.Type)
	walk = func(idx []int, name string, ft reflect.Type) {
		if _, ok := excluded[name]; ok {
			return
		}
		if ft.Kind() == reflect.Struct {
			for j := 0; j < ft.NumField(); j++ {
				walk(append(idx[:len(idx):len(idx)], j), name+"."+ft.Field(j).Name, ft.Field(j).Type)
			}
			return
		}
		var cfg SimConfig
		f := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
		switch {
		case ft == reflect.TypeOf((*failure.Timeline)(nil)):
			f.Set(reflect.ValueOf(failure.NewTimeline().TorDown(sim.Microsecond, 1)))
		case f.CanInt():
			f.SetInt(3)
		case f.CanUint():
			f.SetUint(3)
		case f.CanFloat():
			f.SetFloat(0.25)
		case ft.Kind() == reflect.String:
			f.SetString("x")
		case ft.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("SimConfig.%s: no non-zero value for a %s; extend this test", name, ft)
		}
		if configKey(cfg, nil) == zero {
			t.Errorf("SimConfig.%s set to %v leaves configKey unchanged", name, f)
		}
	}
	typ := reflect.TypeOf(SimConfig{})
	for i := 0; i < typ.NumField(); i++ {
		walk([]int{i}, typ.Field(i).Name, typ.Field(i).Type)
	}
}
