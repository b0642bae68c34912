package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"ucmp/internal/core"
	"ucmp/internal/harness"
	"ucmp/internal/netsim"
	"ucmp/internal/routing"
	"ucmp/internal/sim"
	"ucmp/internal/topo"
)

// childArgs selects what one child process does. Every measured repetition
// is a fresh process so that heap state, the in-process warm-fabric map and
// peak RSS never carry over from one repetition to the next.
type childArgs struct {
	Mode     string // "run" | "trace" | "canary"
	Workload string
	Scale    string
	Seed     int64
	CacheDir string
	CkptDir  string
	OutDir   string // trace mode: where trace-<workload>.json goes
	Probe    bool   // set-up only: horizon of 1 ns, or NewFabric alone
	Shards   int
	Resume   bool
}

// childResult is the one JSON object a child prints on standard output.
type childResult struct {
	Fingerprint string  `json:"fingerprint"`
	Flows       int     `json:"flows"`
	Unfinished  int     `json:"unfinished"`
	BadFlows    int     `json:"bad_flows"`
	Events      uint64  `json:"events"`
	DataPkts    int64   `json:"data_pkts"`
	Efficiency  float64 `json:"efficiency"`
	ShortP99Us  float64 `json:"short_p99_us"`
	TableRows   int     `json:"table_rows"`
	AllocMB     float64 `json:"alloc_mb"`
	Note        string  `json:"note,omitempty"`
	// Layer holds the per-layer metrics a trace or canary child measured.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// childMain runs one child and prints its result on standard output. main
// turns an error into a non-zero exit with the reason on standard error; the
// parent then counts the workload's operations as failed.
func childMain(a childArgs) error {
	var res childResult
	var err error
	switch a.Mode {
	case "canary":
		res.Layer = canary(a.Scale)
	case "run", "trace":
		var s spec
		s, err = specFor(a.Workload, a.Scale, a.Seed)
		if err != nil {
			return err
		}
		s = s.withDirs(a.CacheDir, a.CkptDir)
		if a.Mode == "trace" {
			res, err = traceChild(a, s)
		} else {
			res, err = runChild(a, s)
		}
	default:
		err = fmt.Errorf("unknown child mode %q", a.Mode)
	}
	if err != nil {
		return err
	}
	res.AllocMB = allocMB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runChild is the untraced operation: exactly what a user of ucmpsim or
// ucmppaths waits for, through the same entry points.
func runChild(a childArgs, s spec) (childResult, error) {
	if s.Offline {
		return runOffline(s, a.Probe)
	}
	cfg := s.Sim
	cfg.Shards = a.Shards
	cfg.Resume = a.Resume
	if a.Probe {
		// Fabric, path set (built or loaded), wiring, flow generation and
		// launch all happen; the loop returns after its first instant.
		cfg.Horizon = 1
		cfg.CheckpointEvery = 0
	}
	r, err := harness.Run(cfg)
	if err != nil {
		return childResult{}, err
	}
	res := summarize(r.Flows, r.Counters, cfg.Topo.LinkBps)
	res.Events = r.Events
	res.Efficiency = r.Efficiency
	res.Note = r.ResumeNote
	if a.Shards > 1 && !r.Sharded {
		return res, fmt.Errorf("Shards=%d fell back to the serial engine: %s", a.Shards, r.ShardNote)
	}
	return res, nil
}

func runOffline(s spec, probe bool) (childResult, error) {
	fab, err := topo.NewFabric(s.Topo, "round-robin", s.Seed)
	if err != nil || probe {
		return childResult{}, err
	}
	ps := core.BuildPathSetWith(fab, 0.5, 0)
	table := routing.CompileTable(ps, core.NewFlowAger(ps), 0)
	if err := table.Validate(ps); err != nil {
		return childResult{}, fmt.Errorf("compiled table invalid: %w", err)
	}
	return offlineResult(table), nil
}

func offlineResult(table *routing.CompiledTable) childResult {
	h := fnv.New64a()
	h.Write(table.Bytes())
	return childResult{
		Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
		TableRows:   table.NumRows(),
	}
}

// summarize digests a finished simulation: the per-flow fingerprint that
// every equivalence check compares, the per-flow output checks, and the
// simulated statistics reported by size class. flows arrive sorted by ID,
// as Network.Flows returns them.
func summarize(flows []*netsim.Flow, c netsim.Counters, linkBps int64) childResult {
	h := fnv.New64a()
	res := childResult{Flows: len(flows), DataPkts: c.DataDelivered}
	var short []sim.Time
	for _, f := range flows {
		fmt.Fprintf(h, "%d/%d/%d/%v;", f.ID, f.FinishedAt, f.BytesDelivered, f.Finished)
		if !f.Finished {
			res.Unfinished++
		} else if f.Size < 100<<10 {
			short = append(short, f.FCT())
		}
		if badFlow(f, linkBps) {
			res.BadFlows++
		}
	}
	// The counters are hashed by name: a counter added later must not change
	// the fingerprint of an unchanged simulation.
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d/%d/%d", c.DataBytesSent, c.DataBytesDelivered,
		c.DataInjected, c.DataDelivered, c.TrimmedDelivered, c.DataDropped,
		c.ExpiredInCalendar, c.LateArrivals, c.CalendarFull)
	res.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	if len(short) > 0 {
		sort.Slice(short, func(i, j int) bool { return short[i] < short[j] })
		res.ShortP99Us = short[(len(short)-1)*99/100].Micros()
	}
	return res
}

// badFlow reports a flow whose recorded outcome is impossible: more bytes
// delivered than it has, finished without all of them, or finished sooner
// than its bytes fit through one host link.
func badFlow(f *netsim.Flow, linkBps int64) bool {
	if f.BytesDelivered < 0 || f.BytesDelivered > f.Size {
		return true
	}
	if !f.Finished {
		return false
	}
	wire := sim.Time(float64(f.Size) * 8 / float64(linkBps) * 1e9)
	return f.BytesDelivered != f.Size || f.FCT() < wire
}
