package tensor

import (
	"runtime"
	"sync"

	"antgpu/internal/aco"
)

// The engine's multicore execution model. Every parallel region below is
// deterministic by construction, so results are bit-identical for any
// worker count:
//
//   - Per-ant RNG streams are pure functions of (seed, iteration, ant)
//     (rng.AntSeed), not positions in a shared sequence — what an ant
//     draws cannot depend on scheduling.
//   - Work is sharded statically: ants and matrix rows split into
//     contiguous ranges that depend only on (total, workers), and shards
//     write disjoint state (per-ant tour/length rows, disjoint matrix
//     spans, per-worker scratch).
//   - Every cross-ant reduction (best-so-far) runs serially in ant-index
//     order after the barrier, keeping the serial loop's
//     first-ant-wins-ties rule — the tensor analogue of the island
//     model's island-id-order reduction.
//   - Order-sensitive kernels stay serial: the dense-Δ deposit scatter
//     (float32 accumulation order is part of the result) and the whole
//     ACS construction (its per-edge local update makes each ant read
//     the trails the previous ants wrote — sequential semantics by
//     definition, as in Skinderowicz's GPU ACS, which only parallelizes
//     it by accepting different results; this engine does not).
//
// Workers is therefore purely a throughput knob.

// Options configure engine behaviour orthogonal to the colony parameters.
type Options struct {
	// Workers bounds the engine's worker goroutines. Zero falls back to
	// Params.Workers, then to runtime.GOMAXPROCS(0).
	Workers int
}

// resolveWorkers picks the effective worker count: the explicit option,
// else the Params-level knob, else one worker per schedulable CPU.
func resolveWorkers(o Options, p aco.Params) int {
	w := o.Workers
	if w <= 0 {
		w = p.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// workerPool is the engine's persistent fan-out: workers-1 goroutines
// parked on a task channel plus the calling goroutine. The goroutines
// start lazily on the first parallel region and live until close — one
// spawn for the engine's whole lifetime instead of one per kernel launch.
type workerPool struct {
	workers int
	tasks   chan poolTask
	stop    chan struct{}
	once    sync.Once // guards close(stop)
	started bool
	// panics[w] holds what worker w recovered during the current run;
	// run re-raises it on the caller after the barrier.
	panics []any
}

type poolTask struct {
	fn func(w int)
	wg *sync.WaitGroup
	w  int
}

func newWorkerPool(workers int) *workerPool {
	return &workerPool{workers: workers, stop: make(chan struct{})}
}

// run executes fn(w) for every worker id 0..workers-1 — fn(0) on the
// calling goroutine — and returns when all are done. A panic in any fn
// surfaces on the caller, after every worker has finished, so a recover
// above the engine fails one solve instead of the process: fn(0)'s panic
// unwinds as raised, a pool worker's is re-raised with its value (the
// lowest worker id first). The engine is single-goroutine at its API
// surface, so run is never reentered.
func (p *workerPool) run(fn func(w int)) {
	if p.workers <= 1 {
		fn(0)
		return
	}
	if !p.started {
		p.start()
	}
	clear(p.panics)
	var wg sync.WaitGroup
	wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.tasks <- poolTask{fn: fn, wg: &wg, w: w}
	}
	// Deferred, so a panicking fn(0) still waits: no worker may keep
	// writing engine state while the panic unwinds past the engine.
	defer wg.Wait()
	fn(0)
	wg.Wait()
	for _, v := range p.panics {
		if v != nil {
			panic(v)
		}
	}
}

func (p *workerPool) start() {
	p.started = true
	p.tasks = make(chan poolTask)
	p.panics = make([]any, p.workers)
	for i := 0; i < p.workers-1; i++ {
		go func() {
			for {
				select {
				case t := <-p.tasks:
					p.exec(t)
				case <-p.stop:
					return
				}
			}
		}()
	}
}

// exec runs one task on a pool goroutine, recording a panic for run to
// re-raise instead of letting it kill the process.
func (p *workerPool) exec(t poolTask) {
	defer t.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p.panics[t.w] = v
		}
	}()
	t.fn(t.w)
}

// close parks the pool for good, releasing its goroutines. Safe to call
// repeatedly and on a pool that never started.
func (p *workerPool) close() {
	p.once.Do(func() { close(p.stop) })
}

// Close releases the engine's worker goroutines. Optional: an engine
// dropped without Close is torn down when it becomes unreachable
// (runtime.AddCleanup); Close just makes the teardown deterministic for
// callers that churn through many engines.
func (e *Engine) Close() { e.pool.close() }

// Workers returns the engine's resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// shard splits total items into parts contiguous ranges; part w owns
// [lo, hi). The split depends only on (total, parts, w), never on timing.
func shard(total, parts, w int) (lo, hi int) {
	return w * total / parts, (w + 1) * total / parts
}

// forAnts runs fn(w, ant) for every ant, statically sharded over the
// pool. fn must touch only ant's own tour/length rows and the w-th worker
// scratch.
func (e *Engine) forAnts(fn func(w, ant int)) {
	e.pool.run(func(w int) {
		lo, hi := shard(e.m, e.workers, w)
		for ant := lo; ant < hi; ant++ {
			fn(w, ant)
		}
	})
}

// forSpan runs fn over a static partition of [0, total) — the row-sharded
// form of the engine's flat n²-sweeps. Shards never overlap, so the fused
// sweeps stay deterministic at any worker count.
func (e *Engine) forSpan(total int, fn func(lo, hi int)) {
	e.pool.run(func(w int) {
		if lo, hi := shard(total, e.workers, w); lo < hi {
			fn(lo, hi)
		}
	})
}

// reduceBest folds the per-ant lengths into the best-so-far, serially in
// ant-index order after the construction/local-search barrier: the first
// ant wins ties, exactly as when the serial loop updated the best as each
// ant finished.
func (e *Engine) reduceBest() {
	best := 0
	for ant := 1; ant < e.m; ant++ {
		if e.Lengths[ant] < e.Lengths[best] {
			best = ant
		}
	}
	if e.Lengths[best] < e.BestLen {
		e.BestLen = e.Lengths[best]
		if e.BestTour == nil {
			e.BestTour = make([]int32, e.n)
		}
		copy(e.BestTour, e.Tours[best*e.n:(best+1)*e.n])
	}
}
