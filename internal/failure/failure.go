// Package failure is the fault model: a Scenario marks ToRs, ToR-to-switch
// cables and circuit switches failed and answers which hops and paths
// remain usable; a Timeline scripts scenarios over a run's time. How UCMP
// recovers a broken path (§5.3, Fig 12a–c) is routing's: routing.Classify
// reads a Scenario through routing.StaticHealth.
package failure

import (
	"math"
	"math/rand"

	"ucmp/internal/core"
	"ucmp/internal/topo"
)

// Scenario is one sampled failure pattern.
type Scenario struct {
	F *topo.Fabric

	torDown    []bool
	linkDown   map[[2]int]bool // (tor, circuit switch)
	switchDown []bool
}

// NewScenario returns an all-healthy scenario.
func NewScenario(f *topo.Fabric) *Scenario {
	return &Scenario{
		F:          f,
		torDown:    make([]bool, f.Sched.N),
		linkDown:   make(map[[2]int]bool),
		switchDown: make([]bool, f.Sched.D),
	}
}

// Clone returns an independent copy of the scenario; mutating either copy
// leaves the other untouched. The fault-timeline compiler snapshots epochs
// with it.
func (s *Scenario) Clone() *Scenario {
	c := &Scenario{
		F:          s.F,
		torDown:    append([]bool(nil), s.torDown...),
		linkDown:   make(map[[2]int]bool, len(s.linkDown)),
		switchDown: append([]bool(nil), s.switchDown...),
	}
	for l, d := range s.linkDown {
		c.linkDown[l] = d
	}
	return c
}

// SetTorDown marks one ToR failed (true) or repaired (false).
func (s *Scenario) SetTorDown(tor int, down bool) { s.torDown[tor] = down }

// SetLinkDown marks one (tor, switch) cable failed or repaired.
func (s *Scenario) SetLinkDown(tor, sw int, down bool) {
	if down {
		s.linkDown[[2]int{tor, sw}] = true
	} else {
		delete(s.linkDown, [2]int{tor, sw})
	}
}

// SetSwitchDown marks one circuit switch failed or repaired.
func (s *Scenario) SetSwitchDown(sw int, down bool) { s.switchDown[sw] = down }

// FailToRs marks a fraction of ToRs failed (see pick for the rounding and
// clamping contract).
func (s *Scenario) FailToRs(frac float64, rng *rand.Rand) *Scenario {
	for _, i := range pick(s.F.Sched.N, frac, rng) {
		s.torDown[i] = true
	}
	return s
}

// FailLinks marks a fraction of ToR-to-circuit-switch links failed.
func (s *Scenario) FailLinks(frac float64, rng *rand.Rand) *Scenario {
	n, d := s.F.Sched.N, s.F.Sched.D
	for _, i := range pick(n*d, frac, rng) {
		s.linkDown[[2]int{i / d, i % d}] = true
	}
	return s
}

// FailSwitches marks a fraction of circuit switches failed.
func (s *Scenario) FailSwitches(frac float64, rng *rand.Rand) *Scenario {
	for _, i := range pick(s.F.Sched.D, frac, rng) {
		s.switchDown[i] = true
	}
	return s
}

// pick samples ceil(frac*n) distinct indices. The contract: NaN, negative,
// and zero fractions select nothing (and consume no randomness); fractions
// above 1 (and +Inf) select everything; in between the count rounds UP
// (ceil), so nearby fractions stay distinguishable on small fabrics (1% vs
// 3% of 48 links must differ).
func pick(n int, frac float64, rng *rand.Rand) []int {
	if n <= 0 || math.IsNaN(frac) || frac <= 0 {
		return nil
	}
	k := int(math.Ceil(frac * float64(n)))
	if k > n || k < 0 { // frac > 1, or overflow from a huge fraction
		k = n
	}
	return rng.Perm(n)[:k]
}

// TorOK reports whether a ToR is healthy.
func (s *Scenario) TorOK(tor int) bool { return !s.torDown[tor] }

// LinkOK reports whether the (tor, switch) cable and the switch itself are
// healthy.
func (s *Scenario) LinkOK(tor, sw int) bool {
	return !s.switchDown[sw] && !s.linkDown[[2]int{tor, sw}]
}

// HopOK reports whether the circuit hop from -> to in the given absolute
// slice is usable.
func (s *Scenario) HopOK(from, to int, absSlice int64) bool {
	if !s.TorOK(from) || !s.TorOK(to) {
		return false
	}
	c := s.F.CyclicSlice(absSlice)
	sw := s.F.Sched.SwitchFor(c, from, to)
	if sw < 0 {
		return false
	}
	return s.LinkOK(from, sw) && s.LinkOK(to, sw)
}

// PathOK reports whether every hop of a UCMP path is usable.
func (s *Scenario) PathOK(p *core.Path) bool {
	from := p.Src
	for _, h := range p.Hops {
		if !s.HopOK(from, h.To, h.Slice) {
			return false
		}
		from = h.To
	}
	return true
}
