// Package tensor is the host-native tensorized ACO engine — the third
// backend beside the float64 reference colony (internal/aco) and the
// simulated GPU (internal/core): the whole colony iteration expressed as
// flat []float32 matrix kernels, after the Tensorized-ACO reformulation
// (arXiv 2404.04895) of the paper's per-kernel design.
//
// The layout decisions, in order of importance:
//
//   - One precomputed weight matrix. The reference colony recomputes
//     τ^α·η^β for all n² cells every iteration — two math.Pow calls per
//     cell. The tensor engine precomputes η^β once (the distances never
//     change) and maintains weight = τ^α·η^β incrementally: with the
//     paper's α = 1 the whole pheromone update is a fused multiply-add
//     sweep with no pow anywhere; other α scale the weight matrix by the
//     uniform factor (1-ρ)^α (exact algebra: ((1-ρ)τ)^α = (1-ρ)^α·τ^α)
//     and recompute only the entries invalidated by deposits.
//
//   - Fused evaporate+deposit. Deposits scatter into a dense Δ buffer;
//     one flat sweep then computes τ ← (1-ρ)τ + Δ, refreshes the weight,
//     and re-zeroes Δ — a single traversal of each matrix in index order,
//     which is what the hardware prefetcher and the Go auto-vectoriser
//     both want. There is no separate "compute choice info" stage.
//
//   - Batched roulette via cumulative-sum rows. The selection
//     probabilities of one construction step are a cumulative sum over
//     the feasible weights — the gathered NN row times a 0/1 tabu mask,
//     or on the full rule the weight row gathered along a compacted list
//     of the unvisited cities; the draw is resolved against the running
//     sums with the same last-valid-slot fallback as aco.RouletteSelect.
//
//   - Exact lengths. Tour lengths accumulate from the int32 distance
//     matrix into int64 — never through float32 — so best-tour ranking
//     cannot invert no matter the instance magnitude, and the engine
//     needs no tsp.ErrF32Precision gate. Only the selection probabilities
//     are float32, where bounded drift changes which tour is found, not
//     how any tour is scored (see DESIGN §17 for the precision model).
//
// The engine honours the same Params/seed determinism contract as the
// colony: ant streams are pure per-ant splits rng.AntSeed(seed,
// iteration, ant), drawn in the same order, so in configurations where
// every probability is exact in float32 the tensor engine reproduces the
// reference tours bit for bit.
//
// The engine is multicore: construction and 2-opt shard by ant, the fused
// n²-sweeps shard by row, over a persistent worker pool
// (Options.Workers / Params.Workers; 0 = GOMAXPROCS). Results are
// bit-identical for any worker count — see parallel.go for the model.
package tensor

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/metrics"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Engine is the tensorized Ant System on one TSP instance.
type Engine struct {
	In *tsp.Instance
	P  aco.Params

	n, m, nn int

	tau     []float32 // n×n pheromone τ
	etaBeta []float32 // n×n precomputed η^β (zero diagonal)
	weight  []float32 // n×n τ^α·η^β, the roulette weights
	nnList  []int32   // n×nn nearest-neighbour lists
	wNN     []float32 // n×nn weights gathered along nnList, refreshed per update
	dist    []int32   // n×n int32 distances (aliases In.Matrix, read-only)

	Tours   []int32 // m×n, row per ant
	Lengths []int64 // m exact tour lengths

	BestTour []int32
	BestLen  int64

	iteration uint64
	tau0      float64
	cnn       int64 // greedy NN tour length (variant τ0 / τmax derivations)

	// Conv, when non-nil, receives per-iteration convergence metrics —
	// the same sink the colony and the GPU engine feed.
	Conv *metrics.Convergence
	// Tracer, when non-nil, records construct/update phases. The tensor
	// engine is a real host engine, so spans carry wall-clock seconds.
	Tracer *trace.Collector

	// scratch (reused across ants and iterations; no per-iteration allocs)
	delta   []float32 // n×n dense deposit buffer, zero between updates
	touched []int32   // weight entries invalidated by deposits (α ≠ 1 only)

	// Multicore state: the resolved worker count, the persistent pool, and
	// one private scratch set per worker — ant-sharded kernels index their
	// scratch by worker id, never sharing a mask, city list or 2-opt
	// position table across goroutines.
	workers int
	pool    *workerPool
	cs      []constructScratch
	ls      []twoOptScratch // allocated on first LocalSearchTours
}

// New creates a tensorized Ant System engine with pheromone initialised to
// τ0 = m / C^nn, like the reference colony.
func New(in *tsp.Instance, p aco.Params) (*Engine, error) {
	return NewWithDerived(in, p, nil)
}

// NewWithDerived is New drawing the NN lists and C^nn from precomputed
// derived data (the shared-cache path); nil recomputes them. The engine
// does not consume d.DistF32 — lengths stay exact int64 — so it accepts
// instances the float32 device path must refuse.
func NewWithDerived(in *tsp.Instance, p aco.Params, d *tsp.Derived) (*Engine, error) {
	return NewWithOptions(in, p, d, Options{})
}

// NewWithOptions is NewWithDerived with engine options — currently the
// worker-count override for callers that size the pool per request (the
// service layer) instead of through Params.Workers.
func NewWithOptions(in *tsp.Instance, p aco.Params, d *tsp.Derived, o Options) (*Engine, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	n := in.N()
	e := &Engine{
		In: in, P: p,
		n:       n,
		m:       p.AntCount(n),
		nn:      min(p.NN, n-1),
		workers: resolveWorkers(o, p),
	}
	if d != nil && (d.N != n || d.NN != e.nn) {
		return nil, fmt.Errorf("tensor: derived data shape (n=%d, nn=%d) does not match engine (n=%d, nn=%d)",
			d.N, d.NN, n, e.nn)
	}
	e.tau = make([]float32, n*n)
	e.etaBeta = make([]float32, n*n)
	e.weight = make([]float32, n*n)
	e.dist = in.Matrix()
	e.Tours = make([]int32, e.m*n)
	e.Lengths = make([]int64, e.m)
	e.BestLen = math.MaxInt64
	e.delta = make([]float32, n*n)
	e.pool = newWorkerPool(e.workers)
	e.cs = make([]constructScratch, e.workers)
	for w := range e.cs {
		e.cs[w] = newConstructScratch(n, e.nn)
	}
	// Backstop teardown: the pool's parked goroutines reference only the
	// pool, so an unreachable engine is collectible and this cleanup
	// releases them even when the caller never calls Close.
	runtime.AddCleanup(e, func(p *workerPool) { p.close() }, e.pool)

	var cnn int64
	if d != nil {
		e.nnList = d.List
		cnn = d.CNN
	} else {
		e.nnList = in.NNList(e.nn)
		cnn = in.TourLength(in.NearestNeighbourTour(0))
	}
	e.wNN = make([]float32, n*e.nn)
	e.cnn = cnn
	e.tau0 = float64(e.m) / float64(cnn)

	// η^β once, in float64, rounded to float32 at the end. The diagonal
	// stays zero so a city can never be its own roulette winner — the
	// colony zeroes the same cells in its choice matrix.
	for i := 0; i < n; i++ {
		row := e.etaBeta[i*n : (i+1)*n]
		drow := e.dist[i*n : (i+1)*n]
		for j := range row {
			if i == j {
				continue
			}
			row[j] = float32(powF64(1.0/(float64(drow[j])+0.1), p.Beta))
		}
	}
	e.resetTau(float32(powF64(e.tau0, p.Alpha)), float32(e.tau0))
	return e, nil
}

// resetTau sets every trail to tau and every weight to tauAlpha·η^β in one
// fused row-sharded sweep.
func (e *Engine) resetTau(tauAlpha, tau float32) {
	e.forSpan(len(e.tau), func(lo, hi int) {
		tauS, w, eb := e.tau[lo:hi], e.weight[lo:hi], e.etaBeta[lo:hi]
		for i := range tauS {
			tauS[i] = tau
			w[i] = tauAlpha * eb[i]
		}
	})
	e.refreshNN()
}

// refreshNN re-gathers the NN-list weight tensor wNN from the weight
// matrix. Pheromone only changes between constructions, so gathering once
// per update — n·nn indexed loads — turns the m·(n-1)·nn indexed loads of
// an iteration's construction steps into sequential ones. ACS skips this
// (its per-edge local update dirties weights mid-construction, so its
// choice rule reads the weight matrix directly).
func (e *Engine) refreshNN() {
	nn := e.nn
	e.forSpan(e.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := e.weight[i*e.n : (i+1)*e.n]
			list := e.nnList[i*nn : (i+1)*nn]
			wrow := e.wNN[i*nn : (i+1)*nn]
			for k, j := range list {
				wrow[k] = row[j]
			}
		}
	})
}

// Ants returns the number of ants m.
func (e *Engine) Ants() int { return e.m }

// N returns the number of cities.
func (e *Engine) N() int { return e.n }

// Tau0 returns the initial pheromone level.
func (e *Engine) Tau0() float64 { return e.tau0 }

// Tau exposes the pheromone matrix read-only (tests and convergence
// instrumentation).
func (e *Engine) Tau() []float32 { return e.tau }

// span records a finished phase on the tracer with wall-clock seconds.
func (e *Engine) span(name string, seconds float64) {
	if e.Tracer != nil {
		e.Tracer.Span(name, seconds)
	}
}

// UpdatePheromone runs the fused Ant System pheromone stage: the deposits
// of all ants scatter into the dense Δ buffer, then one flat sweep applies
// τ ← (1-ρ)τ + Δ, refreshes the weight matrix, and re-zeroes Δ. The
// scatter stays serial in ant order — float32 accumulation order is part
// of the result — while the sweep row-shards over the pool.
func (e *Engine) UpdatePheromone() {
	start := time.Now()
	n := e.n
	for ant := 0; ant < e.m; ant++ {
		tour := e.Tours[ant*n : (ant+1)*n]
		d := float32(1.0 / float64(e.Lengths[ant]))
		e.scatterDeposit(tour, d, e.P.Alpha != 1)
	}
	e.applyUpdate()
	e.span("update", time.Since(start).Seconds())
}

// scatterDeposit adds d on both directions of every edge of the tour into
// the Δ buffer; track records the touched entries for the α ≠ 1
// incremental weight invalidation (the MMAS clamp pass recomputes weights
// wholesale instead and passes false).
func (e *Engine) scatterDeposit(tour []int32, d float32, track bool) {
	n := e.n
	prev := int(tour[n-1])
	for i := 0; i < n; i++ {
		c := int(tour[i])
		e.delta[prev*n+c] += d
		e.delta[c*n+prev] = e.delta[prev*n+c]
		if track {
			e.touched = append(e.touched, int32(prev*n+c), int32(c*n+prev))
		}
		prev = c
	}
}

// applyUpdate is the fused evaporate+deposit sweep over τ, weight and Δ —
// RNG-free and cell-independent, so it row-shards over the pool.
func (e *Engine) applyUpdate() {
	f := float32(1 - e.P.Rho)
	if e.P.Alpha == 1 {
		// The hot path: one traversal, two multiply-adds per cell, no pow.
		e.forSpan(len(e.tau), func(lo, hi int) {
			tau, w, eb, del := e.tau[lo:hi], e.weight[lo:hi], e.etaBeta[lo:hi], e.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				tau[i] = t
				w[i] = t * eb[i]
				del[i] = 0
			}
		})
		e.refreshNN()
		return
	}
	// General α: τ updates as usual; untouched weights scale by the exact
	// identity ((1-ρ)τ)^α = (1-ρ)^α·τ^α; entries hit by a deposit lose
	// that identity and are recomputed from τ (incremental invalidation).
	s := float32(math.Pow(float64(f), e.P.Alpha))
	e.forSpan(len(e.tau), func(lo, hi int) {
		tau, w, del := e.tau[lo:hi], e.weight[lo:hi], e.delta[lo:hi]
		for i := range tau {
			tau[i] = tau[i]*f + del[i]
			w[i] *= s
			del[i] = 0
		}
	})
	tau, w := e.tau, e.weight
	if len(e.touched) >= len(tau)/2 {
		// Dense deposits (the AS with m = n touches most of the matrix):
		// a full recompute is cheaper than chasing the invalidation list.
		e.forSpan(len(w), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w[i] = powF32(tau[i], e.P.Alpha) * e.etaBeta[i]
			}
		})
	} else {
		// The invalidation list may repeat an index (two ants crossing one
		// edge), so this stays serial; each write is idempotent but a
		// concurrent duplicate would still be a racing write.
		for _, idx := range e.touched {
			w[idx] = powF32(tau[idx], e.P.Alpha) * e.etaBeta[idx]
		}
	}
	e.touched = e.touched[:0]
	e.refreshNN()
}

// recordIteration feeds the convergence sink exactly like the colony does.
func (e *Engine) recordIteration() {
	if e.Conv == nil {
		return
	}
	best := int64(math.MaxInt64)
	sum := int64(0)
	for _, l := range e.Lengths {
		sum += l
		if l < best {
			best = l
		}
	}
	e.Conv.RecordIteration(float64(best), float64(sum)/float64(e.m), e.BestLen)
	e.Conv.RecordPheromone32(e.tau, e.n)
}

// Iterate runs one full Ant System iteration.
func (e *Engine) Iterate(v aco.Variant) {
	if e.Tracer != nil {
		e.Tracer.Begin("iteration")
		defer e.Tracer.End()
	}
	e.ConstructTours(v)
	e.UpdatePheromone()
	e.recordIteration()
}

// IterateWithLocalSearch is Iterate with the vectorised 2-opt pass applied
// to every ant's tour between construction and the pheromone update — the
// AS + local-search configuration of ACOTSP.
func (e *Engine) IterateWithLocalSearch(v aco.Variant) {
	e.ConstructTours(v)
	e.LocalSearchTours()
	e.UpdatePheromone()
	e.recordIteration()
}

// Run executes iters iterations and returns the best tour found and its
// length.
func (e *Engine) Run(v aco.Variant, iters int) ([]int32, int64) {
	tour, l, _ := e.RunContext(context.Background(), v, iters)
	return tour, l
}

// RunContext is Run with cancellation: the context is checked between
// iterations and its error returned promptly.
func (e *Engine) RunContext(ctx context.Context, v aco.Variant, iters int) ([]int32, int64, error) {
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		e.Iterate(v)
	}
	return e.BestTour, e.BestLen, nil
}

// Checkpoint is a restartable snapshot of the engine's evolving state: the
// pheromone matrix, the iteration counter that seeds the per-ant random
// streams, and the best-so-far. It is the tensor analogue of the recovery
// runtime's device checkpoint — construction streams depend only on
// (seed, iteration, ant), so Restore + Iterate reproduces the tours an
// uninterrupted run would have built.
type Checkpoint struct {
	Iteration uint64
	Tau       []float32
	BestTour  []int32
	BestLen   int64
}

// Checkpoint captures the current state (copies; the engine can keep
// iterating).
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Iteration: e.iteration,
		Tau:       append([]float32(nil), e.tau...),
		BestLen:   e.BestLen,
	}
	if e.BestTour != nil {
		cp.BestTour = append([]int32(nil), e.BestTour...)
	}
	return cp
}

// Restore rewinds the engine to a checkpoint, recomputing the weight
// matrix from the restored trails.
func (e *Engine) Restore(cp *Checkpoint) error {
	if len(cp.Tau) != len(e.tau) {
		return fmt.Errorf("tensor: checkpoint shape %d does not match engine %d", len(cp.Tau), len(e.tau))
	}
	copy(e.tau, cp.Tau)
	e.iteration = cp.Iteration
	e.BestLen = cp.BestLen
	if cp.BestTour != nil {
		if e.BestTour == nil {
			e.BestTour = make([]int32, len(cp.BestTour))
		}
		copy(e.BestTour, cp.BestTour)
	} else {
		e.BestTour = nil
	}
	alpha := e.P.Alpha
	for i := range e.tau {
		e.weight[i] = powF32(e.tau[i], alpha) * e.etaBeta[i]
	}
	e.refreshNN()
	return nil
}

// powF64 is math.Pow with the exponent fast paths the engines hit (β = 2,
// α = 1 and the exactness-relevant p = 0).
func powF64(x, p float64) float64 {
	switch p {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	}
	return math.Pow(x, p)
}

// powF32 is powF64 over float32 operands.
func powF32(x float32, p float64) float32 {
	switch p {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	}
	return float32(math.Pow(float64(x), p))
}
