package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel enables concurrent execution of independent runs inside the
// experiment drivers (one scheme or sweep point per goroutine, bounded by
// GOMAXPROCS). Each run builds its own fabric, path set, engine and
// collector, so runs share no mutable state; results land in preassigned
// slots and reports are rendered only after every run finishes, making the
// output byte-identical to the serial order. Off by default — cmd/ucmpbench
// flips it with -parallel.
var Parallel = false

// Workers bounds the worker pool used when Parallel is set. Zero (the
// default) means GOMAXPROCS. cmd/ucmpbench exposes it as -workers.
var Workers = 0

// workerCount resolves the pool size for n independent units of work.
func workerCount(n int) int {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// forEach invokes fn(0..n-1), concurrently when Parallel is set. Every index
// runs even if an earlier one fails (errors land in per-index slots); the
// error reported is the one from the lowest index, matching what a serial
// fail-fast loop would surface.
func forEach(n int, fn func(i int) error) error {
	if !Parallel || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := workerCount(n)
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
