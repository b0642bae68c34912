package routing

import (
	"ucmp/internal/core"
	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// Congestion-aware path assignment is the §10 "UCMP extension": like
// CONGA/DRILL/Hula adjust flows across ECMP paths on congestion signals,
// UCMP can penalize congested paths during online assignment. The
// extension keeps the offline groups untouched; at plan time it compares
// the backlog of the calendar queue each candidate's first hop would join
// and steers the packet to the least-congested candidate whose uniform
// cost stays within one bucket of the minimum.
//
// The backlog signal is the slice-boundary snapshot every ToR publishes at
// the top of its boundary event (netsim.Network.CongestionBacklog): plans
// made during slice s see the backlogs as of the boundary of slice s−1 —
// stale by at most one slice, but a deterministic function of boundary
// state, which is what lets congestion-aware runs ride the sharded engine
// bit-identically to serial (DESIGN.md §10). During the first slice the
// board is empty and steering never engages.
//
// Enable it by setting UCMP.Backlog (usually Network.CongestionBacklog,
// with the network's board enabled) and a positive CongestionThreshold.

// backlogMemo caches one board read within a single pick: parallel paths
// and hull-neighbor entries frequently share a first hop, and the memo
// keeps each distinct (peer, absolute slice) to one Backlog call.
type backlogMemo struct {
	abs     int64
	to      int
	backlog int
}

// backlogOf resolves the board backlog of a candidate's first hop,
// memoizing per (peer, slice) within the pick.
func (s *planScratch) backlogOf(u *UCMP, tor int, now sim.Time, fromAbs int64, p core.PathView) int {
	h := p.Hop(0)
	abs := h.Slice + fromAbs - p.StartSlice()
	for i := range s.memo {
		if m := &s.memo[i]; m.to == h.To && m.abs == abs {
			return m.backlog
		}
	}
	b := u.Backlog(tor, now, netsim.PlannedHop{To: h.To, AbsSlice: abs})
	s.memo = append(s.memo, backlogMemo{abs: abs, to: h.To, backlog: b})
	return b
}

// congestionCandidates gathers the paths eligible under the one-bucket
// slack rule — the target entry's parallels plus its hull neighbors —
// appending into buf (the pooled scratch) so an engaged pick allocates
// nothing once the buffer has grown to the group's high-water mark.
func (u *UCMP) congestionCandidates(g core.GroupView, bucket int, buf []core.PathView) []core.PathView {
	want := u.Ager.EntryIndex(g, bucket)
	buf = appendPaths(buf, g.Entry(want))
	for _, delta := range [2]int{-1, 1} {
		b := bucket + delta
		if b < 0 {
			continue
		}
		if e := u.Ager.EntryIndex(g, b); e != want {
			buf = appendPaths(buf, g.Entry(e))
		}
	}
	return buf
}

func appendPaths(buf []core.PathView, e core.EntryView) []core.PathView {
	for j := 0; j < e.NumPaths; j++ {
		buf = append(buf, e.Path(j))
	}
	return buf
}

// pickUncongested returns the candidate with the smallest first-hop board
// backlog, preferring the primary choice on ties, plus whether the pick
// steered off the primary. It only engages when steering is configured and
// the primary's backlog meets the threshold; otherwise found is false and
// the caller keeps the normal minimum-uniform-cost assignment.
func (u *UCMP) pickUncongested(s *planScratch, g core.GroupView, bucket, tor int, now sim.Time, fromAbs int64, hash uint64, chk healthCheck) (best core.PathView, steered, found bool) {
	if u.Backlog == nil || u.CongestionThreshold <= 0 || g.NumEntries() == 0 {
		return best, false, false
	}
	want := g.Entry(u.Ager.EntryIndex(g, bucket))
	if want.NumPaths == 0 {
		return best, false, false
	}
	best = want.Path(int(hash % uint64(want.NumPaths)))
	s.memo = s.memo[:0]
	bestBacklog := s.backlogOf(u, tor, now, fromAbs, best)
	if bestBacklog < u.CongestionThreshold {
		return best, false, false
	}
	s.cands = u.congestionCandidates(g, bucket, s.cands[:0])
	for _, p := range s.cands {
		if !chk.ok(p) {
			continue
		}
		// Strictly smaller: the primary (itself a candidate) never displaces
		// itself, so any replacement is a steer.
		if b := s.backlogOf(u, tor, now, fromAbs, p); b < bestBacklog {
			best, bestBacklog, steered = p, b, true
		}
	}
	return best, steered, true
}
