package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hypertrio/internal/core"
	"hypertrio/internal/trace"
)

// Cell is one independent unit of simulation work: a system
// configuration plus the source it replays. Cells never share mutable
// state (each simulation builds its own page tables and caches), which
// is what makes the sweep embarrassingly parallel.
type Cell struct {
	Config core.Config
	// Open returns the cell's packet source. It runs on the worker that
	// simulates the cell, so a queued cell holds no source: a sweep
	// queues Cache.Open(tc) to share one cached trace between cells, or
	// an opener over trace.NewStream for an online source.
	Open func() (trace.Source, error)
}

// Pool executes cells across a fixed number of worker goroutines. The
// zero value is ready to use with GOMAXPROCS workers.
type Pool struct {
	// Workers is the number of concurrent simulation goroutines; values
	// <= 0 mean runtime.GOMAXPROCS(0). Workers == 1 executes cells
	// sequentially in submission order — the historical serial behaviour.
	Workers int
}

func (p Pool) workers(cells int) int {
	n := p.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > cells {
		n = cells
	}
	return n
}

// Run executes every cell and returns the results indexed exactly as
// submitted: results[i] belongs to cells[i] regardless of the worker
// count or completion order, so output assembled from them is
// byte-identical to a serial run. Each simulation is deterministic, so
// the whole call is deterministic for a given cell list.
//
// On failure Run reports the error of the lowest-indexed failing cell;
// remaining cells may be skipped.
func (p Pool) Run(cells []Cell) ([]core.Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	results := make([]core.Result, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := p.workers(len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || failed.Load() {
					return
				}
				results[i], errs[i] = runCell(cells[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: cell %d: %w", i, err)
		}
	}
	return results, nil
}

// runCell opens the cell's source and runs one simulation. Panics
// inside the simulation engine are converted to errors so one bad cell
// cannot take down the pool.
func runCell(c Cell) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panic: %v", r)
		}
	}()
	src, err := c.Open()
	if err != nil {
		return core.Result{}, err
	}
	sys, err := core.NewSystemSource(c.Config, src)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run()
}
