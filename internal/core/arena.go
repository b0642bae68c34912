package core

// arena hands out subslices of large pre-allocated chunks, batching the
// many small allocations of group extraction (Group, Entry, Path, Hop,
// hull, threshold slices) into a few big ones. Handed-out slices are capped
// with three-index slicing, so a caller appending past the requested length
// reallocates instead of overwriting a neighbor. Chunks are never reused:
// everything taken stays valid for the lifetime of the objects that
// reference it.
type arena[T any] struct {
	chunk []T
	size  int // preferred chunk length
}

// take returns a zeroed slice of length n carved from the current chunk,
// starting a new chunk when the remainder is too small.
func (a *arena[T]) take(n int) []T {
	if cap(a.chunk)-len(a.chunk) < n {
		c := a.size
		if c < n {
			c = n
		}
		a.chunk = make([]T, 0, c)
	}
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	return a.chunk[l : l+n : l+n]
}

// one returns a pointer to a single zeroed element.
func (a *arena[T]) one() *T { return &a.take(1)[0] }

// groupArena pools every allocation made while extracting UCMP groups from
// DP tables.
type groupArena struct {
	groups  arena[Group]
	entries arena[Entry]
	paths   arena[Path]
	ptrs    arena[*Path]
	hops    arena[Hop]
	ints    arena[int]
	floats  arena[float64]

	levels []int // groupFromRow scratch: the hop counts of the group at hand
}

// newGroupArena sizes the chunks to hold exactly the groups of every pair
// of the finished tables, from a counting pass over them: the N² groups of
// a starting slice stay resident in the PathSet, so a chunk sized by guess
// — and a second one when the guess falls short — is memory the build
// never gives back.
func newGroupArena(t *Tables) *groupArena {
	var groups, entries, paths, hops int
	var levels []int
	for src := range t.rows {
		r := &t.rows[src]
		for dst := 0; dst < t.N; dst++ {
			if dst == src {
				continue
			}
			levels = r.entryLevels(levels[:0], dst)
			groups++
			entries += len(levels)
			for _, n := range levels {
				p := 1 + len(r.par[n][dst])
				paths += p
				hops += p * n
			}
		}
	}
	return &groupArena{
		groups:  arena[Group]{size: groups},
		entries: arena[Entry]{size: entries},
		paths:   arena[Path]{size: paths},
		ptrs:    arena[*Path]{size: paths},
		hops:    arena[Hop]{size: hops},
		ints:    arena[int]{size: entries},
		floats:  arena[float64]{size: entries - groups}, // one per consecutive entry pair
		levels:  levels,
	}
}

// newArenaFor sizes the chunks for about `groups` groups at the paper's
// typical ~3 paths and ~2.5 entries per group. It serves arenas that outlive
// one unit of extraction — a worker's canonical source rows in the symmetric
// build, the interned store, a decoded fabric file — where the tail of a
// chunk is used by the next unit instead of being stranded.
func newArenaFor(groups int) *groupArena {
	return &groupArena{
		groups:  arena[Group]{size: groups},
		entries: arena[Entry]{size: 3 * groups},
		paths:   arena[Path]{size: 4 * groups},
		ptrs:    arena[*Path]{size: 4 * groups},
		hops:    arena[Hop]{size: 8 * groups},
		ints:    arena[int]{size: 3 * groups},
		floats:  arena[float64]{size: 2 * groups},
	}
}
