// Package testbed emulates the paper's prototype testbed (§8): 8 logical
// ToRs, one logical host each with a 100 Gbps downlink, 4 uplinks of
// 10 Gbps toward an emulated circuit switch (mirroring DCN
// oversubscription), 50 us slices with 1 us reconfiguration, TCP as the
// transport, k=1 for KSP/Opera, and α=0.5 for UCMP. The foreground is a
// Memcached/Memslap-style request workload (4 KB responses); the
// background is iperf-style long-lived traffic to the neighboring rack.
package testbed

import (
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/plot"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
	"ucmp/internal/transport"
	"ucmp/internal/workload"
)

// Config returns the §8 testbed fabric.
func Config() topo.Config {
	return topo.Config{
		NumToRs:       8,
		Uplinks:       4,
		HostsPerToR:   1,
		LinkBps:       100e9,
		UplinkBps:     10e9,
		PropDelay:     500 * sim.Nanosecond,
		SliceDuration: 50 * sim.Microsecond,
		ReconfDelay:   1 * sim.Microsecond,
		MTU:           1500,
	}
}

// Result is one routing scheme's testbed outcome; Sim is the run behind it.
type Result struct {
	Scheme     string
	FCTs       []sim.Time
	Probs      []float64
	P50, P99   sim.Time
	Completion float64
	Sim        *harness.Result
}

// Schemes are the four curves of Fig 13.
func Schemes() []harness.Scheme {
	return []harness.Scheme{
		{Name: "ucmp", Routing: harness.UCMP, Transport: transport.TCP},
		{Name: "ksp-1", Routing: harness.KSP1, Transport: transport.TCP},
		{Name: "vlb", Routing: harness.VLB, Transport: transport.TCP},
		{Name: "opera-1", Routing: harness.Opera1, Transport: transport.TCP},
	}
}

// Options tunes the emulated run.
type Options struct {
	Requests   int      // Memcached requests per client (default 40)
	RespBytes  int64    // response size (paper: 4 KB)
	Background int64    // iperf background flow size (default 8 MB)
	Horizon    sim.Time // default 40 ms
	Seed       int64
}

func (o *Options) defaults() {
	if o.Requests == 0 {
		o.Requests = 40
	}
	if o.RespBytes == 0 {
		o.RespBytes = 4 << 10
	}
	if o.Background == 0 {
		o.Background = 8 << 20
	}
	if o.Horizon == 0 {
		o.Horizon = 40 * sim.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Run executes the Fig 13 experiment for one scheme.
func Run(sc harness.Scheme, o Options) (*Result, error) {
	o.defaults()
	cfg := harness.SimConfig{
		Topo:      Config(),
		Routing:   sc.Routing,
		Transport: sc.Transport,
		Alpha:     0.5,
		Horizon:   o.Horizon,
		Seed:      o.Seed,
	}
	flows := buildFlows(cfg.Topo, o)
	cfg.Flows = flows
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	fcts, probs := res.Collector.FCTCDF(true)
	out := &Result{Scheme: sc.Name, FCTs: fcts, Probs: probs, Sim: res}
	if len(fcts) > 0 {
		out.P50 = fcts[len(fcts)/2]
		out.P99 = fcts[len(fcts)*99/100]
	}
	fg := 0
	for _, f := range flows {
		if f.Priority {
			fg++
		}
	}
	if fg > 0 {
		out.Completion = float64(len(fcts)) / float64(fg)
	}
	return out, nil
}

// buildFlows assembles the §8 workload: host 0 runs the Memcached server,
// the other 7 hosts are Memslap clients, and every host additionally sends
// iperf background traffic to its rack neighbor.
func buildFlows(cfg topo.Config, o Options) []*netsim.Flow {
	numHosts := cfg.NumHosts()
	server := 0
	var clients []int
	for h := 0; h < numHosts; h++ {
		if h != server {
			clients = append(clients, h)
		}
	}
	// Memslap-style request gap keeps the foreground ~10% of a 10G uplink.
	gap := 200 * sim.Microsecond
	flows := workload.Memcached(clients, server, o.Requests, o.RespBytes, gap, o.Seed, 1)
	flows = append(flows, workload.Permutation(numHosts, cfg.HostsPerToR, o.Background, 100000)...)
	return flows
}

// RunAll executes every scheme and renders the Fig 13 report.
func RunAll(o Options) (*harness.Report, []*Result, error) {
	r := &harness.Report{Title: "Fig 13: testbed Memcached FCTs (TCP, 8 ToRs, oversubscribed uplinks)"}
	r.Addf("%-10s %-12s %-12s %-10s", "scheme", "p50 FCT", "p99 FCT", "complete")
	var out []*Result
	for _, sc := range Schemes() {
		res, err := Run(sc, o)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		r.Addf("%-10s %-12s %-12s %-10.2f", res.Scheme, res.P50, res.P99, res.Completion)
	}
	r.Addf("(paper ordering: UCMP < KSP < VLB/Opera for testbed memcached FCT)")
	for _, res := range out {
		r.Addf("")
		r.Addf("%s FCT CDF (us):", res.Scheme)
		xs := make([]float64, len(res.FCTs))
		for i, t := range res.FCTs {
			xs[i] = t.Micros()
		}
		for _, line := range plot.CDF(xs, res.Probs, 5, 30) {
			r.Addf("  %s", line)
		}
	}
	return r, out, nil
}
