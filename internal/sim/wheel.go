package sim

import "math/bits"

// timingWheel is a hierarchical timing wheel in the Linux-kernel/Netty
// style, with a widened ground level tuned for packet simulation: level 0
// has l0Slots single-nanosecond slots (a 4.1 µs window — wide enough that
// serialization, propagation and queue-drain events insert directly with no
// cascading), and three 256-slot upper levels covering 2^l0Bits·256^l ns
// each. The horizon is 2^36 ns ≈ 69 s past the cursor; farther events park
// in an overflow (at, seq) heap and migrate in when the cursor reaches
// their window.
//
// Determinism. An event at absolute time t goes to the level of the
// highest bit-group (level-0 bits, else byte) in which t differs from the
// wheel cursor `cur`, into the slot indexed by t's value in that group.
// This placement gives two invariants that make slot FIFO order equal
// (at, seq) order:
//
//  1. Single-prefix slots: all events in a slot at level l share the value
//     of t >> shift(l+1). In particular every event in a level-0 slot has
//     the same absolute time. (Two times with equal group l but different
//     higher bits cannot coexist: the cursor never passes a pending event,
//     so when the later one was inserted its higher bits matched the
//     cursor's, which still bounded the earlier one.)
//  2. Cascade-before-insert: an upper slot is cascaded into lower levels
//     exactly when the cursor enters its window, and any direct insertion
//     of a time in that window can only happen afterwards (the placement
//     rule sends it to a higher level until then). Appends therefore occur
//     in ascending seq order, and popping slot heads yields (at, seq)
//     order.
//
// Scheduling and popping are amortized O(1): insertion is a bitmap-set and
// a list append; level-0 scans go through a one-word summary bitmap (64
// slot-words, one summary bit each), and an event cascades at most
// upLevels times over its lifetime — and in the common near-future case,
// never. Slot lists are intrusive singly-linked lists over a pooled node
// arena with a free list, so steady-state scheduling allocates nothing
// once the arena has grown to the simulation's high-water mark.
const (
	l0Bits  = 12
	l0Slots = 1 << l0Bits // 4096 ns ground window
	l0Mask  = l0Slots - 1
	l0Words = l0Slots / 64

	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256 slots per upper level
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
	upLevels   = 3

	horizonBits = l0Bits + upLevels*wheelBits // 36: ~69 s
)

// wslot is one slot's list: head/tail indices into the node arena, -1 empty.
type wslot struct {
	head, tail int32
}

// wnode is one queued event plus its intrusive list link (also reused as
// the free-list link).
type wnode struct {
	ev   event
	next int32
}

type timingWheel struct {
	// cur is the wheel cursor: never ahead of the earliest pending event,
	// and never behind the engine's committed virtual time at a point where
	// an insertion can happen. All wheel-resident events share cur's
	// top-level window; everything later sits in overflow.
	cur  Time
	size int // pending events, overflow included

	slots0 [l0Slots]wslot
	occ0   [l0Words]uint64
	sum0   uint64 // bit w set <=> occ0[w] != 0

	slots [upLevels][wheelSlots]wslot
	occ   [upLevels][wheelWords]uint64

	nodes []wnode
	free  int32 // free-list head, -1 when empty

	overflow eventHeap

	// stats
	cascades       uint64
	overflowPushes uint64
}

func newTimingWheel() *timingWheel {
	w := &timingWheel{free: -1}
	for s := range w.slots0 {
		w.slots0[s] = wslot{head: -1, tail: -1}
	}
	for l := range w.slots {
		for s := range w.slots[l] {
			w.slots[l][s] = wslot{head: -1, tail: -1}
		}
	}
	w.nodes = make([]wnode, 0, 1024)
	return w
}

// alloc takes a node from the free list, growing the arena if needed.
func (w *timingWheel) alloc() int32 {
	if n := w.free; n >= 0 {
		w.free = w.nodes[n].next
		return n
	}
	w.nodes = append(w.nodes, wnode{})
	return int32(len(w.nodes) - 1)
}

// release clears the node (so it does not pin the callback's closure or
// argument) and returns it to the free list.
func (w *timingWheel) release(n int32) {
	w.nodes[n] = wnode{ev: event{}, next: w.free}
	w.free = n
}

// placeNode links node n into the slot its event time selects relative to
// the current cursor. The caller guarantees ev.at is within the wheel
// horizon (same top-level window as cur).
func (w *timingWheel) placeNode(n int32) {
	t := w.nodes[n].ev.at
	d := uint64(t ^ w.cur)
	w.nodes[n].next = -1
	if d < l0Slots {
		slot := int(uint64(t)) & l0Mask
		sl := &w.slots0[slot]
		if sl.tail >= 0 {
			w.nodes[sl.tail].next = n
		} else {
			sl.head = n
			w.occ0[slot>>6] |= 1 << (uint(slot) & 63)
			w.sum0 |= 1 << (uint(slot) >> 6)
		}
		sl.tail = n
		return
	}
	level := (bits.Len64(d) - l0Bits - 1) >> 3
	slot := int(uint64(t)>>(l0Bits+level*wheelBits)) & wheelMask
	sl := &w.slots[level][slot]
	if sl.tail >= 0 {
		w.nodes[sl.tail].next = n
	} else {
		sl.head = n
		w.occ[level][slot>>6] |= 1 << (uint(slot) & 63)
	}
	sl.tail = n
}

// push inserts an event. The engine guarantees ev.at >= engine.now >= cur.
func (w *timingWheel) push(ev event) {
	w.size++
	if uint64(ev.at^w.cur) >= 1<<horizonBits {
		w.overflow.push(ev)
		w.overflowPushes++
		return
	}
	n := w.alloc()
	w.nodes[n].ev = ev
	w.placeNode(n)
}

// scan0 returns the first occupied level-0 slot index >= from, going
// through the summary bitmap so an empty ground level costs two words.
func (w *timingWheel) scan0(from int) (int, bool) {
	word := from >> 6
	if m := w.occ0[word] &^ (1<<(uint(from)&63) - 1); m != 0 {
		return word<<6 + bits.TrailingZeros64(m), true
	}
	rest := w.sum0 &^ (uint64(1)<<uint(word+1) - 1)
	if rest == 0 {
		return 0, false
	}
	word = bits.TrailingZeros64(rest)
	return word<<6 + bits.TrailingZeros64(w.occ0[word]), true
}

// scanUp returns the first occupied slot index >= from at upper level l.
func (w *timingWheel) scanUp(l, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	m := w.occ[l][word] &^ (1<<(uint(from)&63) - 1)
	for {
		if m != 0 {
			return word<<6 + bits.TrailingZeros64(m), true
		}
		word++
		if word >= wheelWords {
			return 0, false
		}
		m = w.occ[l][word]
	}
}

// cascade redistributes an upper level/slot list into lower levels. The
// caller has just advanced cur to the slot's window base, so every event
// lands strictly below level l.
func (w *timingWheel) cascade(l, slot int) {
	sl := &w.slots[l][slot]
	n := sl.head
	sl.head, sl.tail = -1, -1
	w.occ[l][slot>>6] &^= 1 << (uint(slot) & 63)
	for n >= 0 {
		next := w.nodes[n].next
		w.placeNode(n)
		w.cascades++
		n = next
	}
}

// appendPending appends a pointer to every queued event — each occupied
// slot list at every level, then the overflow heap — in no particular order
// and without touching any wheel state.
func (w *timingWheel) appendPending(evs []*event) []*event {
	list := func(sl wslot) {
		for n := sl.head; n >= 0; n = w.nodes[n].next {
			evs = append(evs, &w.nodes[n].ev)
		}
	}
	for word, m := range w.occ0 {
		for ; m != 0; m &= m - 1 {
			list(w.slots0[word<<6+bits.TrailingZeros64(m)])
		}
	}
	for l := range w.occ {
		for word, m := range w.occ[l] {
			for ; m != 0; m &= m - 1 {
				list(w.slots[l][word<<6+bits.TrailingZeros64(m)])
			}
		}
	}
	for i := range w.overflow {
		evs = append(evs, &w.overflow[i])
	}
	return evs
}

// migrate moves the overflow events of the next top-level window into the
// wheels. Only called when every wheel level is empty, so list order in
// the target slots is exactly the (at, seq) order the heap pops in.
func (w *timingWheel) migrate() {
	h := w.overflow[0].at
	if base := h &^ Time(l0Mask); base > w.cur {
		w.cur = base
	}
	win := uint64(h) >> horizonBits
	for len(w.overflow) > 0 && uint64(w.overflow[0].at)>>horizonBits == win {
		n := w.alloc()
		w.nodes[n].ev = w.overflow.pop()
		w.placeNode(n)
	}
}

// peekMin returns the time of the earliest pending event without mutating
// any wheel state — no cursor advance, no cascading, no overflow
// migration. The sharded coordinator probes domains with it between
// windows; a mutating probe (popLE at a far horizon) could advance the
// cursor past events merged in later and break the "cursor never passes a
// pending event" invariant.
//
// Why the first occupied slot at the lowest occupied upper level holds the
// global minimum: every wheel event matches the cursor in all bit groups
// above its level and exceeds the cursor's value in its own group (the
// cursor never passes a pending event). Comparing a level-l event with a
// level-(l+1) event, both match cur above group l+1; the level-l event
// equals cur in group l+1 while the level-(l+1) event exceeds it — so any
// lower-level event is earlier. Within one level, the slot index is the
// group value, so the first occupied slot ahead of the cursor bounds all
// others; events inside one slot differ only below the group, hence the
// list walk for the exact minimum. Overflow events live in a later
// top-level window than everything wheel-resident.
func (w *timingWheel) peekMin() (Time, bool) {
	if w.size == 0 {
		return 0, false
	}
	if s, ok := w.scan0(int(uint64(w.cur)) & l0Mask); ok {
		return w.cur&^Time(l0Mask) | Time(s), true
	}
	for l := 0; l < upLevels; l++ {
		shift := uint(l0Bits + l*wheelBits)
		idx := int(uint64(w.cur)>>shift) & wheelMask
		s, ok := w.scanUp(l, idx+1)
		if !ok {
			continue
		}
		min := maxTime
		for n := w.slots[l][s].head; n >= 0; n = w.nodes[n].next {
			if at := w.nodes[n].ev.at; at < min {
				min = at
			}
		}
		return min, true
	}
	return w.overflow[0].at, true
}

// popLE removes the earliest event into *out if its time is <= limit.
// Cursor advancement (and with it cascading/migration) is bounded by
// limit, so a horizon probe never moves the cursor past the engine's
// committed time.
func (w *timingWheel) popLE(limit Time, out *event) bool {
	if w.size == 0 {
		return false
	}
	for {
		// Level 0 slots hold exact times: the first occupied slot at or
		// after the cursor offset is the global minimum.
		if s, ok := w.scan0(int(uint64(w.cur)) & l0Mask); ok {
			at := w.cur&^Time(l0Mask) | Time(s)
			if at > limit {
				return false
			}
			sl := &w.slots0[s]
			n := sl.head
			*out = w.nodes[n].ev
			sl.head = w.nodes[n].next
			if sl.head < 0 {
				sl.tail = -1
				if w.occ0[s>>6] &^= 1 << (uint(s) & 63); w.occ0[s>>6] == 0 {
					w.sum0 &^= 1 << (uint(s) >> 6)
				}
			}
			w.release(n)
			w.size--
			w.cur = at
			return true
		}
		// Upper levels: cascade the next occupied slot ahead of the
		// cursor. Slots at or before the cursor's index are necessarily
		// empty (their windows are in the past or already cascaded).
		advanced := false
		for l := 0; l < upLevels; l++ {
			shift := uint(l0Bits + l*wheelBits)
			idx := int(uint64(w.cur)>>shift) & wheelMask
			s, ok := w.scanUp(l, idx+1)
			if !ok {
				continue
			}
			base := w.cur&^(Time(1)<<(shift+wheelBits)-1) | Time(s)<<shift
			if base > limit {
				return false
			}
			w.cur = base
			w.cascade(l, s)
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// Wheels exhausted: the overflow heap holds the next window.
		if len(w.overflow) == 0 {
			return false
		}
		if w.overflow[0].at > limit {
			return false
		}
		w.migrate()
	}
}
