package core

// CostModel evaluates the uniform cost metric of §3.1:
//
//	C(p, f) = latency(p) + α · hop(p) · size(f) / B
//
// latency(p) is the Eqn. 1 slice latency converted to time, the hop term is
// the flow's transmission footprint converted to time by the link bandwidth
// B, and α weighs bandwidth efficiency against latency. All costs are
// reported in microseconds, matching Table 1 of the paper.
type CostModel struct {
	// Alpha is the weight factor α (§5.2). Larger α penalizes long paths
	// more, pushing flows to fewer hops and lowering core utilization.
	Alpha float64
	// LinkBps is the link bandwidth B in bits per second.
	LinkBps float64
	// SliceMicros is the time slice duration u in microseconds.
	SliceMicros float64
}

// LatencyMicros converts an Eqn. 1 slice latency to microseconds.
func (m CostModel) LatencyMicros(latencySlices int64) float64 {
	return float64(latencySlices) * m.SliceMicros
}

// HopTermMicros returns α·hop·size/B in microseconds for a flow of
// sizeBytes.
func (m CostModel) HopTermMicros(hops int, sizeBytes int64) float64 {
	return m.Alpha * float64(hops) * float64(sizeBytes) * 8 / m.LinkBps * 1e6
}

// Cost returns the uniform cost C(p,f) in microseconds for a path described
// by its slice latency and hop count, carrying a flow of sizeBytes.
func (m CostModel) Cost(latencySlices int64, hops int, sizeBytes int64) float64 {
	return m.LatencyMicros(latencySlices) + m.HopTermMicros(hops, sizeBytes)
}

// BoundaryBytes solves Eqn. 3 for the flow size at which two candidate
// paths have equal uniform cost. pA has fewer hops and higher latency than
// pB. Flows smaller than the boundary prefer pB (low latency); flows at or
// above it prefer pA (fewer hops).
func (m CostModel) BoundaryBytes(latA int64, hopsA int, latB int64, hopsB int) float64 {
	dLatMicros := m.LatencyMicros(latA - latB)
	dHops := float64(hopsB - hopsA)
	// size = B·Δlatency / (α·Δhops); convert micros+bps to bytes.
	return m.LinkBps * dLatMicros / 1e6 / (m.Alpha * dHops) / 8
}

// AgedValue maps a flow's bytes-sent to the α-scaled domain of Eqn. 4
// (§5.2): bucket boundaries are fixed, and retuning α only rescales this
// mapping, so new α values can be broadcast to hosts without recomputing
// thresholds.
func (m CostModel) AgedValue(bytesSent int64) float64 {
	return m.Alpha * float64(bytesSent)
}

// AlphaFreeBoundary returns the α-independent boundary value of Eqn. 4
// (right-hand side, per unit hop difference) in the same domain as
// AgedValue: B·Δlatency/Δhops expressed in bytes at α=1.
func (m CostModel) AlphaFreeBoundary(latA int64, hopsA int, latB int64, hopsB int) float64 {
	dLatMicros := m.LatencyMicros(latA - latB)
	return m.LinkBps * dLatMicros / 1e6 / float64(hopsB-hopsA) / 8
}
