package failure

import (
	"fmt"
	"sort"

	"ucmp/internal/core"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// EventKind names one fault-timeline transition.
type EventKind uint8

const (
	// EvTorDown / EvTorUp fail and repair a ToR (A = ToR index).
	EvTorDown EventKind = iota
	EvTorUp
	// EvLinkDown / EvLinkUp fail and repair one ToR-to-circuit-switch cable
	// (A = ToR, B = switch).
	EvLinkDown
	EvLinkUp
	// EvSwitchDown / EvSwitchUp fail and repair a whole circuit switch
	// (A = switch).
	EvSwitchDown
	EvSwitchUp
)

func (k EventKind) String() string {
	switch k {
	case EvTorDown:
		return "tor-down"
	case EvTorUp:
		return "tor-up"
	case EvLinkDown:
		return "link-down"
	case EvLinkUp:
		return "link-up"
	case EvSwitchDown:
		return "switch-down"
	case EvSwitchUp:
		return "switch-up"
	default:
		return "?"
	}
}

// Event is one scripted fault transition at an absolute simulation time.
type Event struct {
	At   sim.Time
	Kind EventKind
	A, B int // ToR / (ToR, switch) / switch, depending on Kind
}

// Timeline is a deterministic fault script: elements go down and come back
// at fixed simulation times. It is a pure description — compiling it against
// a fabric (Compile) produces the immutable Schedule the simulator consults.
// Builder methods return the timeline for chaining.
type Timeline struct {
	events []Event
}

// NewTimeline returns an empty fault script.
func NewTimeline() *Timeline { return &Timeline{} }

// Empty reports whether the script holds no events.
func (tl *Timeline) Empty() bool { return tl == nil || len(tl.events) == 0 }

// Events returns a copy of the scripted events in insertion order.
func (tl *Timeline) Events() []Event {
	if tl == nil {
		return nil
	}
	return append([]Event(nil), tl.events...)
}

// Add appends one raw event.
func (tl *Timeline) Add(e Event) *Timeline {
	tl.events = append(tl.events, e)
	return tl
}

// TorDown fails ToR `tor` at `at`.
func (tl *Timeline) TorDown(at sim.Time, tor int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvTorDown, A: tor})
}

// TorUp repairs ToR `tor` at `at`.
func (tl *Timeline) TorUp(at sim.Time, tor int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvTorUp, A: tor})
}

// LinkDown fails the (tor, switch) cable at `at`.
func (tl *Timeline) LinkDown(at sim.Time, tor, sw int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvLinkDown, A: tor, B: sw})
}

// LinkUp repairs the (tor, switch) cable at `at`.
func (tl *Timeline) LinkUp(at sim.Time, tor, sw int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvLinkUp, A: tor, B: sw})
}

// SwitchDown fails circuit switch `sw` at `at`.
func (tl *Timeline) SwitchDown(at sim.Time, sw int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvSwitchDown, A: sw})
}

// SwitchUp repairs circuit switch `sw` at `at`.
func (tl *Timeline) SwitchUp(at sim.Time, sw int) *Timeline {
	return tl.Add(Event{At: at, Kind: EvSwitchUp, A: sw})
}

// Merge appends every event of `other`, preserving its insertion order.
func (tl *Timeline) Merge(other *Timeline) *Timeline {
	if other != nil {
		tl.events = append(tl.events, other.events...)
	}
	return tl
}

// FromScenario scripts every failed element of a sampled Scenario to go
// down at `down` and — when `repair` is non-negative — come back at
// `repair`. Elements are enumerated in index order, so the resulting
// timeline is deterministic for a deterministic scenario.
func FromScenario(sc *Scenario, down, repair sim.Time) *Timeline {
	tl := NewTimeline()
	for tor, d := range sc.torDown {
		if d {
			tl.TorDown(down, tor)
			if repair >= 0 {
				tl.TorUp(repair, tor)
			}
		}
	}
	for sw, d := range sc.switchDown {
		if d {
			tl.SwitchDown(down, sw)
			if repair >= 0 {
				tl.SwitchUp(repair, sw)
			}
		}
	}
	links := make([][2]int, 0, len(sc.linkDown))
	for l, d := range sc.linkDown {
		if d {
			links = append(links, l)
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, l := range links {
		tl.LinkDown(down, l[0], l[1])
		if repair >= 0 {
			tl.LinkUp(repair, l[0], l[1])
		}
	}
	return tl
}

// epoch is one compiled interval of constant fault state: sc holds from
// start until the next epoch's start.
type epoch struct {
	start sim.Time
	sc    *Scenario
}

// Schedule is a Timeline compiled against a fabric: a sorted array of
// epochs, each an immutable Scenario snapshot. Health queries are pure
// functions of (time, element) — no mutable state, so concurrent lookahead
// domains may consult the schedule freely and serial and sharded runs see
// identical answers at identical local times. That is the whole determinism
// argument for runtime fault injection: failures are not simulator events
// at all, just a time-indexed view (DESIGN.md §4).
type Schedule struct {
	epochs []epoch
}

// Compile folds the timeline's events into epochs. Events sort stably by
// time (same-instant events apply in insertion order, downs and ups alike);
// events at negative times clamp to 0. Out-of-range element indices panic —
// a scripted fault naming a ToR the fabric does not have is a configuration
// bug, not a runtime condition.
func (tl *Timeline) Compile(f *topo.Fabric) *Schedule {
	evs := tl.Events()
	for i := range evs {
		if evs[i].At < 0 {
			evs[i].At = 0
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	s := &Schedule{}
	cur := NewScenario(f)
	s.epochs = append(s.epochs, epoch{start: 0, sc: cur})
	for i := 0; i < len(evs); {
		at := evs[i].At
		next := cur.Clone()
		for ; i < len(evs) && evs[i].At == at; i++ {
			apply(next, evs[i])
		}
		if at == 0 {
			// Faults active from the start replace the base epoch.
			s.epochs[0].sc = next
		} else {
			s.epochs = append(s.epochs, epoch{start: at, sc: next})
		}
		cur = next
	}
	return s
}

func apply(sc *Scenario, e Event) {
	switch e.Kind {
	case EvTorDown:
		sc.SetTorDown(e.A, true)
	case EvTorUp:
		sc.SetTorDown(e.A, false)
	case EvLinkDown:
		sc.SetLinkDown(e.A, e.B, true)
	case EvLinkUp:
		sc.SetLinkDown(e.A, e.B, false)
	case EvSwitchDown:
		sc.SetSwitchDown(e.A, true)
	case EvSwitchUp:
		sc.SetSwitchDown(e.A, false)
	default:
		panic(fmt.Sprintf("failure: unknown event kind %d", e.Kind))
	}
}

// ScenarioAt returns the fault state in force at `now`. The returned
// Scenario is shared and must not be mutated.
func (s *Schedule) ScenarioAt(now sim.Time) *Scenario {
	// Engine time is non-negative and epochs[0].start == 0, so the search
	// always lands on a valid epoch.
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].start > now }) - 1
	if i < 0 {
		i = 0
	}
	return s.epochs[i].sc
}

// Epochs reports the number of constant-state intervals (≥ 1).
func (s *Schedule) Epochs() int { return len(s.epochs) }

// TorOK reports whether a ToR is healthy at `now`. Together with LinkOK it
// implements netsim's fault-state interface; with PathOK it implements the
// routing layer's health view.
func (s *Schedule) TorOK(now sim.Time, tor int) bool { return s.ScenarioAt(now).TorOK(tor) }

// LinkOK reports whether the (tor, switch) cable and the switch itself are
// healthy at `now`.
func (s *Schedule) LinkOK(now sim.Time, tor, sw int) bool { return s.ScenarioAt(now).LinkOK(tor, sw) }

// PathOK reports whether every hop of a UCMP path is usable at `now`.
func (s *Schedule) PathOK(now sim.Time, p *core.Path) bool { return s.ScenarioAt(now).PathOK(p) }
