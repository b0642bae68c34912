// Package workload generates the traffic the paper evaluates on (§7.1):
// open-loop Poisson flow arrivals with flow sizes drawn from the published
// web search (DCTCP) and data mining (VL2) distributions of Microsoft's
// production DCNs, scaled to a target host-link load. It also provides the
// permutation iperf background and Memcached-style request workloads of the
// testbed experiments (§8).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ucmp/internal/netsim"
	"ucmp/internal/sim"
)

// CDFPoint is one point of an empirical flow-size CDF.
type CDFPoint struct {
	Bytes int64
	Prob  float64
}

// Dist is an empirical flow-size distribution sampled by inverse transform
// with log-linear interpolation between points.
type Dist struct {
	Name   string
	Points []CDFPoint
}

// WebSearch returns the web search workload (DCTCP paper): mostly short
// flows, the majority under 15 MB (§7.1).
func WebSearch() *Dist {
	return &Dist{Name: "websearch", Points: []CDFPoint{
		{6 * 1024, 0.15},
		{13 * 1024, 0.2},
		{19 * 1024, 0.3},
		{33 * 1024, 0.4},
		{53 * 1024, 0.53},
		{133 * 1024, 0.6},
		{667 * 1024, 0.7},
		{1467 * 1024, 0.8},
		{3333 * 1024, 0.9},
		{6667 * 1024, 0.95},
		{20000 * 1024, 0.98},
		{30000 * 1024, 1.0},
	}}
}

// DataMining returns the data mining workload (VL2 paper): a heavy-tailed
// distribution whose flows reach 1 GB, with most bytes in flows over 15 MB
// (§7.1).
func DataMining() *Dist {
	return &Dist{Name: "datamining", Points: []CDFPoint{
		{100, 0.1},
		{180, 0.2},
		{250, 0.3},
		{560, 0.4},
		{900, 0.5},
		{1100, 0.6},
		{1870, 0.7},
		{3160, 0.8},
		{10000, 0.9},
		{400000, 0.95},
		{3.16e6, 0.98},
		{1e8, 0.99},
		{1e9, 1.0},
	}}
}

// Fixed returns a degenerate distribution: every flow has exactly `size`
// bytes (useful for controlled experiments and tests).
func Fixed(size int64) *Dist {
	return &Dist{Name: "fixed", Points: []CDFPoint{{Bytes: size, Prob: 1}}}
}

// Uniform returns a distribution roughly uniform (in log space) between
// min and max bytes.
func Uniform(min, max int64) *Dist {
	return &Dist{Name: "uniform", Points: []CDFPoint{{Bytes: min, Prob: 1e-9}, {Bytes: max, Prob: 1}}}
}

// Validate checks monotonicity and termination at probability 1.
func (d *Dist) Validate() error {
	if len(d.Points) == 0 {
		return fmt.Errorf("workload: %s has no points", d.Name)
	}
	prevB, prevP := int64(0), 0.0
	for _, pt := range d.Points {
		if pt.Bytes <= prevB || pt.Prob <= prevP || pt.Prob > 1 {
			return fmt.Errorf("workload: %s not monotone at %+v", d.Name, pt)
		}
		prevB, prevP = pt.Bytes, pt.Prob
	}
	if d.Points[len(d.Points)-1].Prob != 1 {
		return fmt.Errorf("workload: %s CDF does not reach 1", d.Name)
	}
	return nil
}

// Sample draws a flow size by inverse transform.
func (d *Dist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.Search(len(d.Points), func(i int) bool { return d.Points[i].Prob >= u })
	if i == 0 {
		if len(d.Points) == 1 {
			return d.Points[0].Bytes // degenerate (Fixed) distribution
		}
		// Interpolate from (0 bytes, 0) to the first point.
		frac := u / d.Points[0].Prob
		b := int64(frac * float64(d.Points[0].Bytes))
		if b < 1 {
			b = 1
		}
		return b
	}
	lo, hi := d.Points[i-1], d.Points[i]
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	// Log-linear interpolation fits heavy-tailed size distributions.
	logB := math.Log(float64(lo.Bytes)) + frac*(math.Log(float64(hi.Bytes))-math.Log(float64(lo.Bytes)))
	return int64(math.Exp(logB))
}

// Mean returns the analytic mean of the interpolated distribution,
// approximated by numerical integration over the CDF segments.
func (d *Dist) Mean() float64 {
	total := 0.0
	prevB, prevP := 1.0, 0.0
	for _, pt := range d.Points {
		p := pt.Prob - prevP
		// Mean of the log-linear segment, approximated by the geometric
		// midpoint of its endpoints.
		mid := math.Sqrt(prevB * float64(pt.Bytes))
		total += p * mid
		prevB, prevP = float64(pt.Bytes), pt.Prob
	}
	return total
}

// PoissonConfig drives the open-loop generator.
type PoissonConfig struct {
	Dist     *Dist
	NumHosts int
	// LinkBps is the host link bandwidth; Load is the target utilization of
	// host-to-ToR links (the paper runs 40%, saturating the core).
	LinkBps int64
	Load    float64
	// Duration bounds arrival times.
	Duration sim.Time
	Seed     int64
	// HostsPerToR, when positive, excludes intra-rack pairs so all traffic
	// crosses the circuit fabric (the paper's traffic matrix is ToR-level).
	HostsPerToR int
	// MaxFlowSize, when positive, clips sampled flow sizes (scaled runs
	// cannot finish gigabyte flows). The arrival rate is calibrated against
	// the clipped mean so the offered load stays at the target.
	MaxFlowSize int64
	// Hotspot, in (0,1), sends that probability mass of flows toward a
	// small set of hot destination hosts (one per 8 hosts), creating the
	// hot spots the §10 congestion-aware extension targets.
	Hotspot float64
}

// Generate draws the flow set: Poisson arrivals at aggregate rate
// load×NumHosts×LinkBps/8 bytes/s divided by the mean flow size, with
// uniform random (src,dst) host pairs. The rate must be positive and finite:
// the arrival clock steps by Exp/rate, which a negative rate walks backwards
// and an infinite one never moves — flows without end either way — so such a
// configuration panics, as an invalid distribution does (harness.Run checks
// its inputs first and returns an error).
func Generate(cfg PoissonConfig) []*netsim.Flow {
	if err := cfg.Dist.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mean := cfg.Dist.ClippedMean(cfg.MaxFlowSize)
	bytesPerSec := cfg.Load * float64(cfg.NumHosts) * float64(cfg.LinkBps) / 8
	flowsPerSec := bytesPerSec / mean
	if !(flowsPerSec > 0) || math.IsInf(flowsPerSec, 1) {
		panic(fmt.Sprintf("workload: arrival rate %g flows/s is not positive and finite (Load %g, NumHosts %d, LinkBps %d)",
			flowsPerSec, cfg.Load, cfg.NumHosts, cfg.LinkBps))
	}
	var flows []*netsim.Flow
	t := 0.0
	id := int64(1)
	horizon := cfg.Duration.Seconds()
	for {
		t += rng.ExpFloat64() / flowsPerSec
		if t >= horizon {
			break
		}
		src := rng.Intn(cfg.NumHosts)
		dst := cfg.drawDst(rng, src)
		size := cfg.Dist.Sample(rng)
		if cfg.MaxFlowSize > 0 && size > cfg.MaxFlowSize {
			size = cfg.MaxFlowSize
		}
		flows = append(flows, netsim.NewFlow(id, src, dst, size, sim.Time(t*float64(sim.Second))))
		id++
	}
	return flows
}

// drawDst picks a destination, honoring rack exclusion and the hotspot
// skew.
func (cfg PoissonConfig) drawDst(rng *rand.Rand, src int) int {
	hotCount := cfg.NumHosts / 8
	if hotCount < 1 {
		hotCount = 1
	}
	for {
		var dst int
		if cfg.Hotspot > 0 && rng.Float64() < cfg.Hotspot {
			dst = rng.Intn(hotCount) * 8 // spread hot hosts across racks
			if dst >= cfg.NumHosts {
				dst = cfg.NumHosts - 1
			}
		} else {
			dst = rng.Intn(cfg.NumHosts)
		}
		if dst == src {
			continue
		}
		if cfg.HostsPerToR > 0 && dst/cfg.HostsPerToR == src/cfg.HostsPerToR {
			continue
		}
		return dst
	}
}

// ClippedMean returns the mean of the distribution with sizes clipped at
// max (0 = unclipped), using the same per-segment approximation as Mean.
func (d *Dist) ClippedMean(max int64) float64 {
	if max <= 0 {
		return d.Mean()
	}
	total := 0.0
	prevB, prevP := 1.0, 0.0
	for _, pt := range d.Points {
		p := pt.Prob - prevP
		mid := math.Sqrt(prevB * float64(pt.Bytes))
		if mid > float64(max) {
			mid = float64(max)
		}
		total += p * mid
		prevB, prevP = float64(pt.Bytes), pt.Prob
	}
	return total
}

// Permutation returns one long-lived background flow per host, each sending
// to the host with the same index under the neighboring ToR (the §8 iperf
// background pattern).
func Permutation(numHosts, hostsPerToR int, size int64, baseID int64) []*netsim.Flow {
	numToRs := numHosts / hostsPerToR
	flows := make([]*netsim.Flow, 0, numHosts)
	for h := 0; h < numHosts; h++ {
		tor := h / hostsPerToR
		idx := h % hostsPerToR
		dst := ((tor+1)%numToRs)*hostsPerToR + idx
		flows = append(flows, netsim.NewFlow(baseID+int64(h), h, dst, size, 0))
	}
	return flows
}

// Memcached returns request/response style short flows: every client host
// issues `requests` PULLs of respBytes from the server host, spaced by an
// exponential think time (the §8 Memcached/Memslap foreground).
func Memcached(clients []int, server int, requests int, respBytes int64, meanGap sim.Time, seed int64, baseID int64) []*netsim.Flow {
	rng := rand.New(rand.NewSource(seed))
	var flows []*netsim.Flow
	id := baseID
	for _, c := range clients {
		t := 0.0
		for r := 0; r < requests; r++ {
			t += rng.ExpFloat64() * float64(meanGap)
			fl := netsim.NewFlow(id, server, c, respBytes, sim.Time(t))
			fl.Priority = true
			flows = append(flows, fl)
			id++
		}
	}
	return flows
}
