package harness

import (
	"reflect"
	"strings"
	"testing"

	"ucmp/internal/failure"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
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
