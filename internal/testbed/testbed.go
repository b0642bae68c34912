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

// RunSchemes runs the Fig 13 experiment for each scheme, as one batch on r.
// Every run carries its own flow list, so none is memoized, but each reads
// its path set from r's store.
func RunSchemes(r *harness.Runner, schemes []harness.Scheme, o Options) ([]*Result, error) {
	o.defaults()
	cfgs := make([]harness.SimConfig, len(schemes))
	fg := 0 // the Memcached foreground's flow count, the same in every run
	for i, sc := range schemes {
		var flows []*netsim.Flow
		flows, fg = buildFlows(Config(), o)
		cfgs[i] = harness.SimConfig{
			Topo:      Config(),
			Routing:   sc.Routing,
			Transport: sc.Transport,
			Alpha:     0.5,
			Horizon:   o.Horizon,
			Seed:      o.Seed,
			Flows:     flows,
		}
	}
	runs, err := r.Run(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(runs))
	for i, res := range runs {
		fcts, probs := res.Collector.FCTCDF(true) // the foreground's
		out[i] = &Result{Scheme: schemes[i].Name, FCTs: fcts, Probs: probs, Sim: res}
		if len(fcts) > 0 {
			out[i].P50, out[i].P99 = fcts[len(fcts)/2], fcts[len(fcts)*99/100]
			out[i].Completion = float64(len(fcts)) / float64(fg)
		}
	}
	return out, nil
}

// buildFlows assembles the §8 workload: host 0 runs the Memcached server,
// the other 7 hosts are Memslap clients, and every host additionally sends
// iperf background traffic to its rack neighbor. The first fg flows are the
// Memcached foreground.
func buildFlows(cfg topo.Config, o Options) (flows []*netsim.Flow, fg int) {
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
	flows = workload.Memcached(clients, server, o.Requests, o.RespBytes, gap, o.Seed, 1)
	fg = len(flows)
	return append(flows, workload.Permutation(numHosts, cfg.HostsPerToR, o.Background, 100000)...), fg
}

// RunAll executes every scheme as one batch on r and renders the Fig 13
// report.
func RunAll(r *harness.Runner, o Options) (*harness.Report, []*Result, error) {
	out, err := RunSchemes(r, Schemes(), o)
	if err != nil {
		return nil, nil, err
	}
	rep := &harness.Report{Title: "Fig 13: testbed Memcached FCTs (TCP, 8 ToRs, oversubscribed uplinks)"}
	rep.Addf("%-10s %-12s %-12s %-10s", "scheme", "p50 FCT", "p99 FCT", "complete")
	for _, res := range out {
		rep.Addf("%-10s %-12s %-12s %-10.2f", res.Scheme, res.P50, res.P99, res.Completion)
	}
	rep.Addf("(paper ordering: UCMP < KSP < VLB/Opera for testbed memcached FCT)")
	for _, res := range out {
		rep.Addf("")
		rep.Addf("%s FCT CDF (us):", res.Scheme)
		xs := make([]float64, len(res.FCTs))
		for i, t := range res.FCTs {
			xs[i] = t.Micros()
		}
		for _, line := range plot.CDF(xs, res.Probs, 5, 30) {
			rep.Addf("  %s", line)
		}
	}
	return rep, out, nil
}
