package metrics

import "math"

// Convergence statistics of an ACO run. The GPU literature following the
// paper (Skinderowicz 2016 among others) evaluates solution quality by
// per-iteration convergence curves, and diagnoses stagnation — the whole
// colony retracing one tour — with two pheromone-matrix statistics:
//
//   - entropy: the Shannon entropy of each city's outgoing pheromone row,
//     normalised to [0, 1] and averaged over cities. A uniform matrix (the
//     τ0 start) scores 1; a matrix concentrated on one tour approaches 0.
//   - λ-branching factor: the average number of edges per city whose trail
//     exceeds τmin_i + λ·(τmax_i − τmin_i) (Gambardella & Dorigo's
//     stagnation measure, λ = 0.05). It starts near the city count and
//     collapses towards 2 (one tour edge in, one out) as the colony
//     converges.
//
// A Convergence recorder owns the gauge series of one solve (labeled by
// instance, algorithm and backend) and computes both statistics from the
// pheromone matrix only when recording is enabled: a nil *Convergence is a
// valid disabled recorder whose methods are no-ops, so the engines guard a
// single pointer on the iteration path.

// LambdaBranchingFactor is the λ of the λ-branching statistic.
const LambdaBranchingFactor = 0.05

// IterationEvent is one iteration's complete convergence snapshot, as
// delivered to a sink (NewConvergenceWithSink): the per-iteration and
// best-so-far tour lengths, the gap to the known optimum (when one was
// given), and the two stagnation statistics. It is the unit a solve
// service streams to a waiting client.
type IterationEvent struct {
	// Iteration is the 1-based iteration number within the solve.
	Iteration int `json:"iteration"`
	// Best is the best tour length found in this iteration.
	Best float64 `json:"best"`
	// Mean is the mean tour length over all ants in this iteration.
	Mean float64 `json:"mean"`
	// BestSoFar is the best tour length found so far in the solve.
	BestSoFar int64 `json:"best_so_far"`
	// Gap is BestSoFar over the known optimum minus one; zero when no
	// optimum was given.
	Gap float64 `json:"gap,omitempty"`
	// Entropy is the mean normalised Shannon entropy of the pheromone rows.
	Entropy float64 `json:"entropy"`
	// Lambda is the average λ-branching factor of the pheromone matrix.
	Lambda float64 `json:"lambda"`
}

// Convergence records per-iteration solution-quality and stagnation
// metrics for one solve. Create it with NewConvergence (gauges only) or
// NewConvergenceWithSink (gauges plus an event feed); nil is a no-op.
type Convergence struct {
	iters    Counter
	iterBest Gauge
	iterMean Gauge
	best     Gauge
	gap      Gauge
	entropy  Gauge
	lambda   Gauge
	optimum  float64

	// sink receives one IterationEvent per iteration. The producers call
	// RecordIteration then RecordPheromone back to back, so the event is
	// buffered at RecordIteration and emitted once the pheromone statistics
	// complete it (or at the next RecordIteration when a producer skips the
	// pheromone record). Calls are serial within one solve; the recorder
	// itself needs no locking.
	sink       func(IterationEvent)
	iter       int
	pending    IterationEvent
	hasPending bool
}

// NewConvergence returns a recorder writing to reg with the given series
// labels. optimum, when positive, is the known optimal tour length of the
// instance and enables the gap-to-optimum gauge. A nil registry returns a
// nil (disabled) recorder.
func NewConvergence(reg *Registry, instance, algorithm, backend string, optimum int64) *Convergence {
	if reg == nil {
		return nil
	}
	return newConvergence(reg, instance, algorithm, backend, optimum)
}

// NewConvergenceWithSink is NewConvergence with a per-iteration event feed:
// sink is called once per iteration, in iteration order, from the solve
// goroutine. Unlike NewConvergence, the registry may be nil when a sink is
// given — the recorder then feeds the sink only (the gauge handles are
// no-ops), so a client can stream convergence without running a registry.
// A nil sink makes this identical to NewConvergence.
func NewConvergenceWithSink(reg *Registry, instance, algorithm, backend string, optimum int64, sink func(IterationEvent)) *Convergence {
	if sink == nil {
		return NewConvergence(reg, instance, algorithm, backend, optimum)
	}
	c := newConvergence(reg, instance, algorithm, backend, optimum)
	c.sink = sink
	return c
}

func newConvergence(reg *Registry, instance, algorithm, backend string, optimum int64) *Convergence {
	l := []string{"instance", instance, "algorithm", algorithm, "backend", backend}
	c := &Convergence{
		iters: reg.Counter("antgpu_iterations_total",
			"ACO iterations completed.", l...),
		iterBest: reg.Gauge("antgpu_iteration_best_length",
			"Best tour length found in the latest iteration.", l...),
		iterMean: reg.Gauge("antgpu_iteration_mean_length",
			"Mean tour length over all ants in the latest iteration.", l...),
		best: reg.Gauge("antgpu_best_length",
			"Best-so-far tour length.", l...),
		entropy: reg.Gauge("antgpu_pheromone_entropy",
			"Mean normalised Shannon entropy of the pheromone rows (1 uniform, 0 converged).", l...),
		lambda: reg.Gauge("antgpu_lambda_branching",
			"Average lambda-branching factor of the pheromone matrix (stagnation when near 2).", l...),
	}
	if optimum > 0 {
		c.optimum = float64(optimum)
		c.gap = reg.Gauge("antgpu_optimum_gap_ratio",
			"Best-so-far tour length over the known optimum, minus one.", l...)
	}
	return c
}

// RecordIteration publishes one iteration's solution-quality metrics:
// the iteration's best and mean tour length and the best-so-far.
func (c *Convergence) RecordIteration(iterBest, iterMean float64, bestSoFar int64) {
	if c == nil {
		return
	}
	c.iters.Inc()
	c.iterBest.Set(iterBest)
	c.iterMean.Set(iterMean)
	c.best.Set(float64(bestSoFar))
	gap := 0.0
	if c.optimum > 0 {
		gap = float64(bestSoFar)/c.optimum - 1
		c.gap.Set(gap)
	}
	if c.sink != nil {
		c.flush()
		c.iter++
		c.pending = IterationEvent{
			Iteration: c.iter, Best: iterBest, Mean: iterMean,
			BestSoFar: bestSoFar, Gap: gap,
		}
		c.hasPending = true
	}
}

// RecordPheromone64 publishes the stagnation statistics of an n×n float64
// pheromone matrix (the CPU colony's trails).
func (c *Convergence) RecordPheromone64(pher []float64, n int) {
	if c == nil {
		return
	}
	c.recordPheromone(PheromoneStats64(pher, n))
}

// RecordPheromone32 publishes the stagnation statistics of an n×n float32
// pheromone matrix (the device trails).
func (c *Convergence) RecordPheromone32(pher []float32, n int) {
	if c == nil {
		return
	}
	c.recordPheromone(PheromoneStats32(pher, n))
}

func (c *Convergence) recordPheromone(entropy, lambda float64) {
	c.entropy.Set(entropy)
	c.lambda.Set(lambda)
	if c.sink != nil && c.hasPending {
		c.pending.Entropy, c.pending.Lambda = entropy, lambda
		c.flush()
	}
}

// Flush emits a buffered iteration event that was not completed by a
// pheromone record. Both engine producers pair the two record calls, so
// this only matters for producers that record iterations alone; it is safe
// to call at any time, including on a nil recorder.
func (c *Convergence) Flush() {
	if c != nil {
		c.flush()
	}
}

func (c *Convergence) flush() {
	if c.hasPending {
		c.hasPending = false
		c.sink(c.pending)
	}
}

// PheromoneStats64 returns both stagnation statistics of an n×n float64
// pheromone matrix.
//
// The entropy is the mean normalised Shannon entropy of the rows: each
// row's off-diagonal values are normalised to a distribution, its entropy
// divided by log(n−1), and the rows averaged; 1 means uniform trails, 0
// means every city has a single dominant edge. A row whose off-diagonal
// sum is not positive adds 0. The λ-branching factor is, per city, the
// number of edges whose trail is at least τmin + λ·(τmax − τmin) over that
// city's row, averaged over cities.
func PheromoneStats64(pher []float64, n int) (entropy, lambda float64) {
	return pheromoneStats(pher, n)
}

// PheromoneStats32 is PheromoneStats64 over float32 trails.
func PheromoneStats32(pher []float32, n int) (entropy, lambda float64) {
	return pheromoneStats(pher, n)
}

const (
	// statsBlock is the number of rows pheromoneStats walks side by side.
	statsBlock = 4
	// statsChunk is the number of columns whose entropy terms pass B
	// stages at a time, on the stack.
	statsChunk = 128
)

// pheromoneStats computes both statistics in two passes over each block
// of statsBlock rows. Pass A sums each row's off-diagonal cells in column
// order and takes their min and max. Pass B, a chunk of columns at a time,
// stages each row's p·log p terms and counts its cells at or above the λ
// cut, then subtracts the staged terms from the rows' entropies in column
// order. A row's float64 chains are serial, but the block's rows are
// independent, so their chains overlap in the pipeline. Every row still
// performs its own operations in column order, so both results are
// bit-identical to walking one row at a time.
func pheromoneStats[T float32 | float64](pher []T, n int) (entropy, lambda float64) {
	if n < 2 {
		return 0, 0
	}
	norm := math.Log(float64(n - 1))
	total, count := 0.0, 0
	var terms [statsBlock][statsChunk]float64
	for i := 0; i < n; i += statsBlock {
		rows := min(statsBlock, n-i) // the n mod statsBlock last rows go one at a time
		block := pher[i*n : (i+rows)*n]
		var st [statsBlock]rowStats
		if rows == statsBlock {
			sumMinMax4(&st, block, n, i)
		} else {
			for r := range rows {
				st[r] = spanA(newRowA(), block[r*n:(r+1)*n], 0, n, i+r).stats()
			}
		}
		var h [statsBlock]float64
		for from := 0; from < n; from += statsChunk {
			to := min(from+statsChunk, n)
			for r := range rows {
				stageTerms(&st[r], terms[r][:to-from], block[r*n+from:r*n+to], i+r-from)
			}
			if rows == statsBlock {
				subtract4(&h, &terms, to-from)
			} else {
				for r := range rows {
					for _, t := range terms[r][:to-from] {
						h[r] -= t
					}
				}
			}
		}
		for r := range rows {
			// Only a row whose sum is not positive leaves the entropy
			// out, so a NaN or +Inf sum still adds its row.
			if !(st[r].sum <= 0) {
				total += h[r] / norm
			}
			count += st[r].count
		}
	}
	if n < 3 {
		total = 0 // a city with one edge has no entropy to normalise
	}
	return total / float64(n), float64(count) / float64(n)
}

// rowStats is one row's state for pass B: the sum and min of its
// off-diagonal cells, the λ cut, the min's term, the last cell with its
// term, and the count of cells at or above the cut.
type rowStats struct {
	sum, lo, cut, loTerm, prev, term float64
	count                            int
}

// rowA is the pass-A state of one row while a pass runs: the running sum,
// min and max of its off-diagonal cells.
type rowA struct{ sum, lo, hi float64 }

func newRowA() rowA { return rowA{lo: math.Inf(1), hi: math.Inf(-1)} }

// add folds in the next cell. A NaN cell joins the sum but never the min
// or max.
func (a rowA) add(f float64) rowA {
	a.sum += f
	if f < a.lo {
		a.lo = f
	}
	if f > a.hi {
		a.hi = f
	}
	return a
}

// spanA folds in the cells of row[from:to], skipping the diagonal column
// diag.
func spanA[T float32 | float64](a rowA, row []T, from, to, diag int) rowA {
	for j := from; j < to; j++ {
		if j != diag {
			a = a.add(float64(row[j]))
		}
	}
	return a
}

// stats readies the row for pass B.
func (a rowA) stats() rowStats {
	st := rowStats{sum: a.sum, lo: a.lo, prev: math.NaN()}
	st.cut = a.lo + LambdaBranchingFactor*(a.hi-a.lo)
	st.loTerm = plogp(a.lo / a.sum)
	return st
}

// sumMinMax4 runs pass A over the four rows from row i, held in block. The
// block's diagonal cells lie in columns i to i+3: the columns before and
// after them take all four rows at once, and those four columns go row by
// row, each row skipping its own cell.
func sumMinMax4[T float32 | float64](st *[statsBlock]rowStats, block []T, n, i int) {
	r0, r1, r2, r3 := block[:n], block[n:2*n], block[2*n:3*n], block[3*n:4*n]
	a0, a1, a2, a3 := newRowA(), newRowA(), newRowA(), newRowA()
	for _, span := range [2][2]int{{0, i}, {i + statsBlock, n}} {
		for j := span[0]; j < span[1]; j++ {
			a0, a1 = a0.add(float64(r0[j])), a1.add(float64(r1[j]))
			a2, a3 = a2.add(float64(r2[j])), a3.add(float64(r3[j]))
		}
		if span[0] == 0 {
			d := i + statsBlock
			a0, a1 = spanA(a0, r0, i, d, i), spanA(a1, r1, i, d, i+1)
			a2, a3 = spanA(a2, r2, i, d, i+2), spanA(a3, r3, i, d, i+3)
		}
	}
	*st = [statsBlock]rowStats{a0.stats(), a1.stats(), a2.stats(), a3.stats()}
}

// stageTerms writes into terms the entropy term of each cell of one row's
// chunk of columns, 0 for the row's diagonal cell at chunk index diag, and
// counts the chunk's off-diagonal cells at or above the cut. Cells no ant
// has deposited on since τ0 evaporate to the same bits, the row's min, so
// a row is mostly runs of equal cells: a cell equal to the previous one
// reuses its term, and a cell equal to the min reuses the min's. A term
// depends on the cell's value alone, so every staged term has the bits a
// fresh computation would give. A float32 cell widens exactly, so
// comparing widened cells compares the float32 values.
func stageTerms[T float32 | float64](st *rowStats, terms []float64, cells []T, diag int) {
	terms = terms[:len(cells)]
	sum, cut, lo, loTerm := st.sum, st.cut, st.lo, st.loTerm
	prev, term, count := st.prev, st.term, st.count
	for c, x := range cells {
		v := float64(x)
		if v != prev {
			prev = v
			if v == lo {
				term = loTerm
			} else {
				term = plogp(v / sum)
			}
		}
		terms[c] = term
		count += atLeast(v, cut)
	}
	if 0 <= diag && diag < len(cells) {
		terms[diag] = 0
		count -= atLeast(float64(cells[diag]), cut)
	}
	st.prev, st.term, st.count = prev, term, count
}

// subtract4 subtracts the first m staged terms of each of four rows from
// the rows' entropies, in column order. Subtracting the diagonal cell's
// +0 leaves an entropy's bits unchanged, whatever they are.
func subtract4(h *[statsBlock]float64, terms *[statsBlock][statsChunk]float64, m int) {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	t0 := terms[0][:m]
	t1, t2, t3 := terms[1][:len(t0)], terms[2][:len(t0)], terms[3][:len(t0)]
	for c := range t0 {
		h0 -= t0[c]
		h1 -= t1[c]
		h2 -= t2[c]
		h3 -= t3[c]
	}
	*h = [statsBlock]float64{h0, h1, h2, h3}
}

// plogp is the entropy term p·log p of a cell's share p, 0 unless p > 0.
func plogp(p float64) float64 {
	if p > 0 {
		return p * math.Log(p)
	}
	return 0
}

// atLeast is 1 when v >= cut and 0 otherwise (NaN on either side is 0).
func atLeast(v, cut float64) int {
	if v >= cut {
		return 1
	}
	return 0
}
