// Sweep bookkeeping (DESIGN.md §15): per-trial checkpoints let one killed
// simulation resume mid-run, but a sweep that dies between trials would
// still re-run everything it had already finished. The sweep book closes
// that gap — a small checksummed file in the checkpoint directory recording
// the summary line of every completed trial, rewritten atomically after
// each completion. A resumed sweep restores recorded trials from the book
// (byte-identical summary output) and only simulates the remainder.
package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"ucmp/internal/checkpoint"
	"ucmp/internal/metrics"
)

// trialKey identifies one trial inside the book: the trial name plus the
// full configKey, so a renamed or reconfigured trial never restores a stale
// line.
func trialKey(t Trial) string {
	return t.Name + "|" + configKey(t.Cfg, t.Cfg.Flows)
}

// sweepBook tracks completed trials of one sweep. A nil book (no checkpoint
// directory configured) is valid and inert.
type sweepBook struct {
	path   string
	resume bool

	mu   sync.Mutex
	done map[string]string // trialKey -> recorded summary line
}

// openSweepBook builds the book for a trial matrix. The book file is named
// by a digest of every trial key, so two different sweeps sharing one
// checkpoint directory keep separate books. With Resume set on the trials,
// any existing book is loaded; load failures (missing file, corruption,
// version drift) degrade to an empty book and a full re-run.
func openSweepBook(trials []Trial) *sweepBook {
	if len(trials) == 0 || trials[0].Cfg.CheckpointDir == "" {
		return nil
	}
	h := fnv.New64a()
	for _, t := range trials {
		io.WriteString(h, trialKey(t))
		io.WriteString(h, ";")
	}
	b := &sweepBook{
		path:   filepath.Join(trials[0].Cfg.CheckpointDir, fmt.Sprintf("sweep-%016x.ucmpswp", h.Sum64())),
		resume: trials[0].Cfg.Resume,
		done:   make(map[string]string),
	}
	if b.resume {
		b.load()
	}
	return b
}

func (b *sweepBook) load() {
	f, err := checkpoint.Load(b.path)
	if err != nil {
		return
	}
	dec, err := f.Section("sweep")
	if err != nil {
		return
	}
	n := dec.Len()
	loaded := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := dec.Str()
		loaded[k] = dec.Str()
	}
	if dec.Err() != nil {
		return
	}
	b.done = loaded
}

// restore returns the recorded Result for a completed trial, or nil if the
// trial must run. Only consulted when the sweep asked to resume.
func (b *sweepBook) restore(t Trial) *Result {
	if b == nil || !b.resume {
		return nil
	}
	b.mu.Lock()
	line, ok := b.done[trialKey(t)]
	b.mu.Unlock()
	if !ok {
		return nil
	}
	return &Result{
		Config:     t.Cfg,
		Collector:  &metrics.Collector{},
		SweepLine:  line,
		ResumeNote: "restored from sweep book",
	}
}

// record stores a completed trial's summary line and rewrites the book
// atomically. A write failure is returned for the trial's ResumeNote, not
// raised: losing the book costs a future resume some re-runs, never the
// current sweep.
func (b *sweepBook) record(t Trial, r *Result) error {
	if b == nil {
		return nil
	}
	line := summaryLine(t, r)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done[trialKey(t)] = line
	keys := make([]string, 0, len(b.done))
	for k := range b.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := checkpoint.NewWriter()
	enc := w.Section("sweep")
	enc.Len(len(keys))
	for _, k := range keys {
		enc.Str(k)
		enc.Str(b.done[k])
	}
	return w.Save(b.path)
}
