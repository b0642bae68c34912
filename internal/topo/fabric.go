package topo

import (
	"fmt"

	"ucmp/internal/sim"
)

// Fabric couples a Config with a Schedule and provides time arithmetic
// between wall-clock simulation time and (absolute, cyclic) slice numbers.
type Fabric struct {
	Config
	Sched *Schedule
}

// NewFabric validates the configuration, builds the requested schedule kind
// ("round-robin", "random", "opera", "random-circulant") and returns the
// fabric.
func NewFabric(cfg Config, kind string, seed int64) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var s *Schedule
	switch kind {
	case "round-robin", "":
		s = RoundRobin(cfg.NumToRs, cfg.Uplinks)
	case "random":
		s = Random(cfg.NumToRs, cfg.Uplinks, seed)
	case "opera":
		s = Opera(cfg.NumToRs, cfg.Uplinks)
	case "random-circulant":
		var err error
		if s, err = RandomCirculant(cfg.NumToRs, cfg.Uplinks, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("topo: unknown schedule kind %q", kind)
	}
	return &Fabric{Config: cfg, Sched: s}, nil
}

// MustFabric is NewFabric that panics on error, for tests and examples.
func MustFabric(cfg Config, kind string, seed int64) *Fabric {
	f, err := NewFabric(cfg, kind, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// AbsSlice returns the absolute slice number containing time t.
func (f *Fabric) AbsSlice(t sim.Time) int64 { return int64(t / f.SliceDuration) }

// CyclicSlice reduces an absolute slice number to a cycle position.
func (f *Fabric) CyclicSlice(abs int64) int { return int(abs % int64(f.Sched.S)) }

// SliceStart returns the wall-clock start of an absolute slice.
func (f *Fabric) SliceStart(abs int64) sim.Time {
	return sim.Time(abs) * f.SliceDuration
}

// SliceEnd returns the wall-clock end (exclusive) of an absolute slice.
func (f *Fabric) SliceEnd(abs int64) sim.Time { return f.SliceStart(abs + 1) }

// CycleDuration returns the wall-clock duration of a full circuit cycle.
func (f *Fabric) CycleDuration() sim.Time {
	return f.SliceDuration * sim.Time(f.Sched.S)
}

// LatencySlices returns the paper's Eqn. 1 latency, in slices, of a path
// that starts in absolute slice start and whose last-hop circuit is in
// absolute slice end: end - start + 1.
func (f *Fabric) LatencySlices(start, end int64) int64 { return end - start + 1 }
