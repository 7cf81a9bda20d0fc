package aco

import (
	"fmt"
	"math"

	"antgpu/internal/metrics"
	"antgpu/internal/rng"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Variant selects the tour-construction strategy.
type Variant int

const (
	// FullProbabilistic applies the random-proportional rule over all
	// unvisited cities at every step (paper Figure 4(b) baseline).
	FullProbabilistic Variant = iota
	// NNListConstruction restricts the probabilistic choice to the nn
	// nearest neighbours and falls back to the best feasible city by choice
	// value when the whole list is visited (paper Figure 4(a) baseline,
	// NN = 30).
	NNListConstruction
)

func (v Variant) String() string {
	switch v {
	case FullProbabilistic:
		return "full-probabilistic"
	case NNListConstruction:
		return "nn-list"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Colony is a sequential Ant System colony on one TSP instance.
type Colony struct {
	In *tsp.Instance
	P  Params

	m  int // ants
	n  int // cities
	nn int // effective NN list length

	Pher   []float64 // n*n pheromone matrix τ
	Choice []float64 // n*n choice matrix τ^α * η^β
	nnList []int32   // n*nn nearest neighbour lists

	Tours   []int32 // m*n, row per ant
	Lengths []int64 // m tour lengths

	BestTour []int32
	BestLen  int64

	iteration uint64
	cnn       int64 // greedy nearest-neighbour tour length C^nn

	// Stage meters, accumulated across calls until ResetMeters.
	ConstructMeter Meter
	PheromoneMeter Meter
	ChoiceMeter    Meter

	// Tracer, when non-nil, records every algorithm phase on a simulated
	// timeline; phase durations come from the stage meters through the
	// reference CPU model (DefaultCPU).
	Tracer *trace.Collector

	// scratch
	visited []bool
	probs   []float64
	tau0    float64
}

// New creates a colony with pheromone initialised to τ0 = m / C^nn, where
// C^nn is the length of a greedy nearest-neighbour tour, as recommended by
// Dorigo & Stützle for the Ant System.
func New(in *tsp.Instance, p Params) (*Colony, error) {
	return NewWithDerived(in, p, nil)
}

// ASTau0 is the Ant System's initial trail τ0 = m/C^nn for m ants and the
// greedy tour length cnn.
func ASTau0(m int, cnn int64) float64 { return float64(m) / float64(cnn) }

// NewWithDerived is New drawing the instance-derived read-only data (the
// nearest-neighbour lists and the greedy NN tour length) from d instead of
// recomputing it — the shared-cache path of batch solving. d must match the
// instance and the colony's effective NN width; nil recomputes everything.
// A d without lists builds a colony that can run only the full rule
// without 2-opt. The colony aliases d.List without copying, so d must stay
// immutable.
func NewWithDerived(in *tsp.Instance, p Params, d *tsp.Derived) (*Colony, error) {
	c, err := newColony(in, p, d)
	if err != nil {
		return nil, err
	}
	c.initTrails(c.tau0)
	return c, nil
}

// newColony builds every part of the colony but the trails: τ and the
// choice matrix stay zero until the algorithm's constructor fills them,
// so each constructor computes the choice matrix once. tau0 is the Ant
// System's.
func newColony(in *tsp.Instance, p Params, d *tsp.Derived) (*Colony, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	n := in.N()
	c := &Colony{
		In: in, P: p,
		m:  p.AntCount(n),
		n:  n,
		nn: min(p.NN, n-1),
	}
	if d == nil {
		d = in.Derive(c.nn, true)
	} else if d.N != n || d.NN != c.nn {
		return nil, fmt.Errorf("aco: derived data shape (n=%d, nn=%d) does not match colony (n=%d, nn=%d)",
			d.N, d.NN, n, c.nn)
	}
	c.Pher = make([]float64, n*n)
	c.Choice = make([]float64, n*n)
	c.Tours = make([]int32, c.m*n)
	c.Lengths = make([]int64, c.m)
	c.visited = make([]bool, n)
	c.probs = make([]float64, n)
	c.BestLen = math.MaxInt64

	c.nnList, c.cnn = d.List, d.CNN
	c.tau0 = ASTau0(c.m, c.cnn)
	return c, nil
}

// initTrails sets τ0 and every trail to tau0 and computes the choice
// matrix.
func (c *Colony) initTrails(tau0 float64) {
	c.tau0 = tau0
	for i := range c.Pher {
		c.Pher[i] = tau0
	}
	c.ComputeChoiceInfo()
}

// Ants returns the number of ants m.
func (c *Colony) Ants() int { return c.m }

// N returns the number of cities.
func (c *Colony) N() int { return c.n }

// Tau0 returns the initial pheromone level.
func (c *Colony) Tau0() float64 { return c.tau0 }

// ResetMeters zeroes the accumulated stage meters.
func (c *Colony) ResetMeters() {
	c.ConstructMeter = Meter{}
	c.PheromoneMeter = Meter{}
	c.ChoiceMeter = Meter{}
}

// cpuSpan records one finished phase as a leaf span on the tracer, with
// its duration modelled from the phase's meter delta.
func (c *Colony) cpuSpan(name string, mtr *Meter) {
	if c.Tracer == nil {
		return
	}
	c.Tracer.Span(name, DefaultCPU().Seconds(mtr))
}

// heuristic returns η(i,j)^β with the ACOTSP guard against zero distances.
func (c *Colony) heuristic(d int32) float64 {
	return 1.0 / (float64(d) + 0.1)
}

// ComputeChoiceInfo recomputes the choice matrix τ^α · η^β, the
// "choice_info" array of ACOTSP that the paper's version (2) turns into a
// separate GPU kernel.
func (c *Colony) ComputeChoiceInfo() {
	n := c.n
	mtr := Meter{}
	for i := 0; i < n; i++ {
		base := i * n
		for j := 0; j < n; j++ {
			if i == j {
				c.Choice[base+j] = 0
				continue
			}
			tau := math.Pow(c.Pher[base+j], c.P.Alpha)
			eta := math.Pow(c.heuristic(c.In.Dist(i, j)), c.P.Beta)
			c.Choice[base+j] = tau * eta
		}
	}
	nn := float64(n) * float64(n)
	mtr.Pow += 2 * nn
	mtr.Ops += 6 * nn
	mtr.Bytes += 24 * nn // read τ and d, write choice
	c.ChoiceMeter.Add(&mtr)
	c.cpuSpan("choice", &mtr)
}

// ConstructTours builds tours for all m ants with the selected variant.
func (c *Colony) ConstructTours(v Variant) {
	c.ConstructAnts(v, c.m)
}

// ConstructAnts builds tours for the first `count` ants (ants are
// independent, so a sample is representative; the benchmark harness scales
// the meters). The iteration counter advances once per call so repeated
// calls explore new random streams.
func (c *Colony) ConstructAnts(v Variant, count int) {
	if count > c.m {
		count = c.m
	}
	c.iteration++
	mtr := Meter{}
	for ant := 0; ant < count; ant++ {
		g := rng.FromState(rng.AntSeed(c.P.Seed, c.iteration, ant))
		switch v {
		case NNListConstruction:
			c.constructAntNN(ant, &g, &mtr)
		default:
			c.constructAntFull(ant, &g, &mtr)
		}
	}
	c.ConstructMeter.Add(&mtr)
	c.cpuSpan("construct", &mtr)
}

// constructAntFull applies the random-proportional rule (paper eq. 1) over
// all unvisited cities at every step.
func (c *Colony) constructAntFull(ant int, g *rng.LCG, mtr *Meter) {
	n := c.n
	tour := c.Tours[ant*n : (ant+1)*n]
	for i := range c.visited {
		c.visited[i] = false
	}
	mtr.Ops += float64(n)

	cur := g.Intn(n)
	mtr.RNG++
	tour[0] = int32(cur)
	c.visited[cur] = true

	for step := 1; step < n; step++ {
		row := c.Choice[cur*n:]
		sum := 0.0
		for j := 0; j < n; j++ {
			if c.visited[j] {
				c.probs[j] = 0
			} else {
				p := row[j]
				c.probs[j] = p
				sum += p
			}
		}
		mtr.Ops += 6 * float64(n)
		mtr.Bytes += 8 * float64(n)

		next := -1
		if sum > 0 {
			r := g.Float64() * sum
			mtr.RNG++
			if k := RouletteSelect(c.probs, n, r); k >= 0 {
				next = k
				mtr.Ops += 3 * float64(k+1)
			}
		}
		if next < 0 {
			next = c.bestFeasible(cur, mtr)
		}
		tour[step] = int32(next)
		c.visited[next] = true
		cur = next
		mtr.Ops += 4
	}
	c.finishAnt(ant, tour, mtr)
}

// constructAntNN restricts the probabilistic choice to the nearest-
// neighbour list, falling back to the best feasible city when every listed
// neighbour is visited (ACOTSP's neighbour_choose_and_move_to_next).
func (c *Colony) constructAntNN(ant int, g *rng.LCG, mtr *Meter) {
	n, nn := c.n, c.nn
	tour := c.Tours[ant*n : (ant+1)*n]
	for i := range c.visited {
		c.visited[i] = false
	}
	mtr.Ops += float64(n)

	cur := g.Intn(n)
	mtr.RNG++
	tour[0] = int32(cur)
	c.visited[cur] = true

	for step := 1; step < n; step++ {
		list := c.nnList[cur*nn : (cur+1)*nn]
		row := c.Choice[cur*n:]
		sum := 0.0
		for k := 0; k < nn; k++ {
			j := list[k]
			if c.visited[j] {
				c.probs[k] = 0
			} else {
				p := row[j]
				c.probs[k] = p
				sum += p
			}
		}
		mtr.Ops += 8 * float64(nn)

		next := -1
		if sum > 0 {
			r := g.Float64() * sum
			mtr.RNG++
			if k := RouletteSelect(c.probs, nn, r); k >= 0 {
				next = int(list[k])
				mtr.Ops += 3 * float64(k+1)
			}
		}
		if next < 0 {
			next = c.bestFeasible(cur, mtr)
			mtr.Fallbacks++
		}
		tour[step] = int32(next)
		c.visited[next] = true
		cur = next
		mtr.Ops += 4
	}
	c.finishAnt(ant, tour, mtr)
}

// bestFeasible scans all cities for the unvisited one with the highest
// choice value (ACOTSP's choose_best_next).
func (c *Colony) bestFeasible(cur int, mtr *Meter) int {
	n := c.n
	row := c.Choice[cur*n:]
	best, bestV := -1, -1.0
	for j := 0; j < n; j++ {
		if !c.visited[j] && row[j] > bestV {
			best, bestV = j, row[j]
		}
	}
	mtr.Ops += 4 * float64(n)
	mtr.Bytes += 8 * float64(n)
	if best < 0 {
		panic("aco: no feasible city (corrupt visited state)")
	}
	return best
}

// finishAnt computes the ant's tour length and updates the best-so-far.
func (c *Colony) finishAnt(ant int, tour []int32, mtr *Meter) {
	l := c.In.TourLength(tour)
	c.Lengths[ant] = l
	mtr.Ops += 3 * float64(len(tour))
	mtr.Bytes += 4 * float64(len(tour))
	if l < c.BestLen {
		c.BestLen = l
		if c.BestTour == nil {
			c.BestTour = make([]int32, len(tour))
		}
		copy(c.BestTour, tour)
	}
}

// Evaporate lowers all pheromone values by the factor (1-ρ) (paper eq. 2).
func (c *Colony) Evaporate() {
	f := 1 - c.P.Rho
	for i := range c.Pher {
		c.Pher[i] *= f
	}
	nn := float64(c.n) * float64(c.n)
	mtr := Meter{Ops: 2 * nn, Bytes: 16 * nn}
	c.PheromoneMeter.Add(&mtr)
	c.cpuSpan("evaporation", &mtr)
}

// Deposit adds Δτ = 1/C^k on every edge of every ant's tour, symmetrically
// (paper eqs. 3–4).
func (c *Colony) Deposit() {
	c.DepositAnts(c.m)
}

// DepositAnts deposits the first `count` ants' pheromone (for sampled
// timing runs; functionally the full deposit uses count = m).
func (c *Colony) DepositAnts(count int) {
	if count > c.m {
		count = c.m
	}
	n := c.n
	mtr := Meter{}
	for ant := 0; ant < count; ant++ {
		tour := c.Tours[ant*n : (ant+1)*n]
		d := 1.0 / float64(c.Lengths[ant])
		for i := 0; i < n; i++ {
			a := int(tour[i])
			b := int(tour[(i+1)%n])
			c.Pher[a*n+b] += d
			c.Pher[b*n+a] = c.Pher[a*n+b]
		}
	}
	mtr.Ops += 12 * float64(count) * float64(n)
	mtr.Bytes += 128 * float64(count) * float64(n) // two RMW cache lines per edge
	c.PheromoneMeter.Add(&mtr)
	c.cpuSpan("deposit", &mtr)
}

// UpdatePheromone runs the full pheromone stage: evaporation, deposit, and
// — as in ACOTSP — recomputation of the choice information.
func (c *Colony) UpdatePheromone() {
	defer c.Tracer.Phase("update")()
	c.Evaporate()
	c.Deposit()
	c.ComputeChoiceInfo()
}

// Iterate runs one full Ant System iteration.
func (c *Colony) Iterate(v Variant) {
	defer c.Tracer.Phase("iteration")()
	c.ConstructTours(v)
	c.UpdatePheromone()
}

// IterateWithLocalSearch is Iterate with 2-opt applied to every ant's tour
// between construction and the pheromone update — the AS + local-search
// configuration of ACOTSP.
func (c *Colony) IterateWithLocalSearch(v Variant) {
	defer c.Tracer.Phase("iteration")()
	c.ConstructTours(v)
	c.LocalSearchTours(c.m)
	c.UpdatePheromone()
}

// RecordConvergence publishes the latest iteration to conv: the best and
// mean tour length of the colony, the best-so-far and the pheromone
// statistics. Every algorithm embedding the colony shares it. A nil conv
// is a no-op, so the O(n²) matrix statistics run only while a recorder is
// attached.
func (c *Colony) RecordConvergence(conv *metrics.Convergence) {
	if conv == nil {
		return
	}
	best := int64(math.MaxInt64)
	sum := int64(0)
	for _, l := range c.Lengths {
		sum += l
		if l < best {
			best = l
		}
	}
	conv.RecordIteration(float64(best), float64(sum)/float64(c.m), c.BestLen)
	conv.RecordPheromone64(c.Pher, c.n)
}
