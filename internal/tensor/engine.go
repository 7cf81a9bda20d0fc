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
//   - Recycled matrices, one shared η^β. τ and the weights are the
//     engine's two n×n matrices (8 MB at n = 1002). Close hands them, with
//     the tours, lengths and every scratch buffer of the job, to the next
//     engine of the same n through an idle list that holds them weakly,
//     so a garbage collection reclaims a set no engine took. η^β (4 MB at
//     n = 1002) is one read-only table per (instance, β), shared by every
//     live engine of that key and filled by the first. So a server solving
//     one size job after job allocates nothing n-sized at set-up, and one
//     solving one instance fills η^β once (see matrices.go).
//
//   - Fused evaporate+deposit, with the weights as the deposit buffer.
//     Nothing reads the weights between an iteration's last construction
//     and the update, which rewrites every one of them, so the update
//     clears them and scatters the deposits into them as the dense Δ; one
//     flat sweep then computes τ ← (1-ρ)τ + Δ and overwrites each Δ with
//     its cell's new weight — a single traversal of each matrix in index
//     order, which is what the hardware prefetcher and the Go
//     auto-vectoriser both want. There is no separate "compute choice
//     info" stage.
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
// (Params.Workers; 0 = GOMAXPROCS). Results are
// bit-identical for any worker count — see parallel.go for the model.
package tensor

import (
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
	etaBeta []float32 // n×n precomputed η^β (zero diagonal; the shared table, read-only)
	weight  []float32 // n×n τ^α·η^β, the roulette weights
	nnList  []int32   // n×nn nearest-neighbour lists
	wNN     []float32 // n×nn weights gathered along nnList; nil until the NN rule first constructs
	dist    []int32   // n×n int32 distances (aliases In.Matrix, read-only)

	// Tours and Lengths come from the recycled matrix set, so Close drops
	// them; BestTour is the engine's own and stays readable.
	Tours   []int32 // m×n, row per ant
	Lengths []int64 // m exact tour lengths

	BestTour []int32
	BestLen  int64

	iteration uint64
	tau0      float64
	cnn       int64 // greedy NN tour length (variant τ0 / τmax derivations)

	// Tracer, when non-nil, records each iteration's span and its
	// construct, 2-opt and update leaves. The tensor engine is a real host
	// engine, so the leaves carry wall-clock seconds.
	Tracer *trace.Collector

	// touched lists the cells the deposits hit, each with its new τ, on
	// the one update path that keeps the other weights (α ≠ 1, sparse
	// deposits); nil until that path first runs, then reused.
	touched []touchedCell

	// mats owns tau, weight, Tours, Lengths, wNN, touched and the
	// per-worker scratch until Close recycles it; eta owns etaBeta, shared
	// with the other live engines of this instance and β.
	mats *matrices
	eta  *etaTable

	// Multicore state: the resolved worker count, the persistent pool, and
	// private scratch per worker — ant-sharded kernels index their scratch
	// by worker id, never sharing a mask, city list or 2-opt position table
	// across goroutines.
	workers int
	pool    *workerPool
	cs, cs2 []constructScratch // cs2 serves the second ant of a full-rule pair
	ls      []twoOptScratch    // taken from mats on first LocalSearchTours
}

// New creates a tensorized Ant System engine with pheromone initialised to
// τ0 = m / C^nn, like the reference colony.
func New(in *tsp.Instance, p aco.Params) (*Engine, error) {
	return NewWithDerived(in, p, nil)
}

// NewWithDerived is New drawing the NN lists and C^nn from precomputed
// derived data (the shared-cache path); nil recomputes them. A d without
// lists builds an engine that keeps no NN-list weights and can run only
// the full rule without 2-opt. Lengths stay exact int64 from the
// instance's int32 matrix, so the engine accepts instances the float32
// device path must refuse.
func NewWithDerived(in *tsp.Instance, p aco.Params, d *tsp.Derived) (*Engine, error) {
	e, err := newEngine(in, p, d)
	if err != nil {
		return nil, err
	}
	e.resetTau(float32(powOf(p.Alpha)(e.tau0)), float32(e.tau0))
	return e, nil
}

// newEngine builds every part of the engine but the trails: τ and the
// weights hold whatever the recycled matrix set last held until the
// algorithm's constructor calls resetTau with its own τ0.
func newEngine(in *tsp.Instance, p aco.Params, d *tsp.Derived) (*Engine, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	n := in.N()
	e := &Engine{
		In: in, P: p,
		n:       n,
		m:       p.AntCount(n),
		nn:      min(p.NN, n-1),
		workers: p.Workers,
	}
	if e.workers == 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if d == nil {
		d = in.Derive(e.nn, true)
	} else if d.N != n || d.NN != e.nn {
		return nil, fmt.Errorf("tensor: derived data shape (n=%d, nn=%d) does not match engine (n=%d, nn=%d)",
			d.N, d.NN, n, e.nn)
	}
	e.dist = in.Matrix()
	e.BestLen = math.MaxInt64
	e.pool = newWorkerPool(e.workers)
	// Backstop teardown: the pool's parked goroutines reference only the
	// pool, so an unreachable engine is collectible and this cleanup
	// releases them even when the caller never calls Close.
	runtime.AddCleanup(e, func(p *workerPool) { p.close() }, e.pool)

	e.nnList, e.cnn = d.List, d.CNN
	e.tau0 = aco.ASTau0(e.m, e.cnn)

	e.mats = takeMatrices(n)
	e.tau, e.weight = e.mats.tau, e.mats.weight
	e.Tours, e.Lengths = e.mats.toursFor(e.m)
	cs := e.mats.constructScratch(2*e.workers, e.nn)
	e.cs, e.cs2 = cs[:e.workers], cs[e.workers:]
	e.eta = takeEta(in, p.Beta)
	e.etaBeta = e.eta.v
	return e, nil
}

// Close releases the engine's worker goroutines and its hold on the η^β
// table, and hands its n×n matrices, tours, lengths and scratch to the
// next engine of the same size, which then skips their allocation. Call it
// once the solve is done: an engine dropped without Close still has its
// goroutines torn down when it becomes unreachable (runtime.AddCleanup),
// but its buffers are garbage. Close leaves every recycled field nil,
// Tours and Lengths included, so a closed engine can never read or write
// the buffers of the solve that takes them next; only BestTour and
// BestLen, which the engine owns, stay readable. A second Close does
// nothing.
func (e *Engine) Close() {
	e.pool.close()
	if e.mats == nil {
		return
	}
	putMatrices(e.mats)
	releaseEta(e.eta)
	e.mats, e.eta = nil, nil
	e.tau, e.etaBeta, e.weight, e.wNN = nil, nil, nil, nil
	e.Tours, e.Lengths, e.touched = nil, nil, nil
	e.cs, e.cs2, e.ls = nil, nil, nil
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
// an iteration's construction steps into sequential ones. Only the NN
// rule reads wNN, so its first construction takes it from the matrix set
// and gathers it (ConstructTours), and until then every refresh is
// skipped: ACS never takes it (its per-edge local update dirties weights
// mid-construction, so its choice rule reads the weight matrix directly),
// nor does a full-rule engine, with or without 2-opt.
func (e *Engine) refreshNN() {
	if e.wNN == nil {
		return
	}
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
// instrumentation). Close hands the matrix to the next engine of this
// size, so a caller that keeps τ past Close must copy it first.
func (e *Engine) Tau() []float32 { return e.tau }

// UpdatePheromone runs the fused Ant System pheromone stage with the
// weight matrix as the dense deposit buffer Δ: it clears the weights,
// scatters the deposits of all ants into them, then one flat sweep applies
// τ ← (1-ρ)τ + Δ and overwrites each cell's Δ with its new weight. The
// scatter stays serial in ant order — float32 accumulation order is part
// of the result — while the sweep row-shards over the pool. The clear is
// one memclr: it is bound by memory bandwidth, so sharding it would only
// add a pool round trip. With α ≠ 1 and deposits on under half the cells,
// the untouched weights keep their values instead (updateSparse).
func (e *Engine) UpdatePheromone() {
	alpha := e.P.Alpha
	// The ants deposit on 2·n·m cells, a cell two ants cross counted twice.
	if alpha != 1 && 2*e.n*e.m < len(e.tau)/2 {
		e.updateSparse()
		return
	}
	clear(e.weight)
	e.depositAnts()
	f := float32(1 - e.P.Rho)
	if alpha == 1 {
		// The hot path: one traversal, two multiply-adds per cell, no pow.
		e.forSpan(len(e.tau), func(lo, hi int) {
			tau, w, eb := e.tau[lo:hi], e.weight[lo:hi], e.etaBeta[lo:hi]
			for i := range tau {
				t := tau[i]*f + w[i]
				tau[i] = t
				w[i] = t * eb[i]
			}
		})
	} else {
		// Dense deposits (the AS with m = n touches most of the matrix):
		// recomputing every weight is cheaper than chasing the cells.
		e.forSpan(len(e.tau), func(lo, hi int) {
			tau, w, eb := e.tau[lo:hi], e.weight[lo:hi], e.etaBeta[lo:hi]
			for i := range tau {
				t := tau[i]*f + w[i]
				tau[i] = t
				w[i] = powF32(t, alpha) * eb[i]
			}
		})
	}
	e.refreshNN()
}

// touchedCell is one cell a deposit hit, with the τ the update gives it.
type touchedCell struct {
	cell int32
	tau  float32
}

// updateSparse is the α ≠ 1 update for deposits on under half the cells.
// Untouched weights scale by the exact identity ((1-ρ)τ)^α = (1-ρ)^α·τ^α,
// so only the touched cells serve as Δ: it zeroes them, scatters into
// them and stores each one's new τ = (1-ρ)τ + Δ; the sweep then
// evaporates τ and scales every weight, and last the touched cells get
// their τ and a weight recomputed from it. The list repeats a cell that
// two ants cross, which gets the same values both times; the passes over
// it stay serial, since a concurrent duplicate would still be a racing
// write.
func (e *Engine) updateSparse() {
	n, w := e.n, e.weight
	if e.touched == nil {
		e.touched = e.mats.touchedCells(2 * n * e.m)
	}
	e.touched = e.touched[:0]
	for ant := 0; ant < e.m; ant++ {
		tour := e.Tours[ant*n : (ant+1)*n]
		prev := int(tour[n-1])
		for _, c := range tour {
			a, b := prev*n+int(c), int(c)*n+prev
			w[a], w[b] = 0, 0
			e.touched = append(e.touched, touchedCell{cell: int32(a)}, touchedCell{cell: int32(b)})
			prev = int(c)
		}
	}
	e.depositAnts()
	f := float32(1 - e.P.Rho)
	for k, c := range e.touched {
		e.touched[k].tau = e.tau[c.cell]*f + w[c.cell]
	}
	s := float32(math.Pow(float64(f), e.P.Alpha))
	e.forSpan(len(e.tau), func(lo, hi int) {
		tau, w := e.tau[lo:hi], e.weight[lo:hi]
		for i := range tau {
			tau[i] *= f
			w[i] *= s
		}
	})
	for _, c := range e.touched {
		e.tau[c.cell] = c.tau
		w[c.cell] = powF32(c.tau, e.P.Alpha) * e.etaBeta[c.cell]
	}
	e.refreshNN()
}

// depositAnts scatters every ant's deposit into the weight matrix, in ant
// order.
func (e *Engine) depositAnts() {
	for ant := 0; ant < e.m; ant++ {
		e.deposit(e.Tours[ant*e.n:(ant+1)*e.n], e.Lengths[ant])
	}
}

// deposit adds 1/length on both directions of every edge of the tour into
// the weight matrix, which the update uses as Δ: the cell in the walked
// direction accumulates and its mirror copies it.
func (e *Engine) deposit(tour []int32, length int64) {
	n, w := e.n, e.weight
	d := float32(1.0 / float64(length))
	prev := int(tour[n-1])
	for _, c := range tour {
		w[prev*n+int(c)] += d
		w[int(c)*n+prev] = w[prev*n+int(c)]
		prev = int(c)
	}
}

// RecordConvergence publishes the latest iteration to conv exactly like
// the colony does: the best and mean tour length of the colony, the
// best-so-far and the pheromone statistics. Every algorithm embedding the
// engine shares it. A nil conv is a no-op, so the O(n²) matrix statistics
// run only while a recorder is attached.
func (e *Engine) RecordConvergence(conv *metrics.Convergence) {
	if conv == nil {
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
	conv.RecordIteration(float64(best), float64(sum)/float64(e.m), e.BestLen)
	conv.RecordPheromone32(e.tau, e.n)
}

// iterate is the iteration skeleton every tensor algorithm runs: inside one
// "iteration" span it runs construct, localSearch when it is non-nil, and
// update, recording each on the tracer as a leaf of host wall-clock
// seconds.
func (e *Engine) iterate(construct, localSearch, update func()) {
	defer e.Tracer.Phase("iteration")()
	e.timed("construct", construct)
	if localSearch != nil {
		e.timed("2-opt", localSearch)
	}
	e.timed("update", update)
}

// timed runs stage and records its wall-clock seconds as a leaf named name.
func (e *Engine) timed(name string, stage func()) {
	start := time.Now()
	stage()
	e.Tracer.Span(name, time.Since(start).Seconds())
}

// Iterate runs one full Ant System iteration.
func (e *Engine) Iterate(v aco.Variant) {
	e.iterate(func() { e.ConstructTours(v) }, nil, e.UpdatePheromone)
}

// IterateWithLocalSearch is Iterate with the vectorised 2-opt pass applied
// to every ant's tour between construction and the pheromone update — the
// AS + local-search configuration of ACOTSP.
func (e *Engine) IterateWithLocalSearch(v aco.Variant) {
	e.iterate(func() { e.ConstructTours(v) }, e.LocalSearchTours, e.UpdatePheromone)
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

// powOf returns x ↦ x^p: math.Pow with the exponent fast paths the engines
// hit (β = 2, α = 1 and the exactness-relevant p = 0), the case chosen once
// so a loop raising many bases to one exponent does not branch per base.
func powOf(p float64) func(float64) float64 {
	switch p {
	case 0:
		return func(float64) float64 { return 1 }
	case 1:
		return func(x float64) float64 { return x }
	case 2:
		return func(x float64) float64 { return x * x }
	}
	return func(x float64) float64 { return math.Pow(x, p) }
}

// powF32 is powOf(p) over a float32 operand.
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
