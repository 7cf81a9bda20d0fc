package aco

import (
	"fmt"
	"math"
	"sort"

	"antgpu/internal/tsp"
)

// The remaining classic variants of the Ant System family (Dorigo &
// Stützle 2004, ch. 3), completing the set next to AS, ACS and MMAS:
//
//   - Elitist AS (EAS): every iteration the best-so-far tour receives an
//     additional weighted deposit e·(1/C_bs);
//   - Rank-based AS (ASrank): only the w-1 best-ranked ants of the
//     iteration deposit, weighted by rank, plus the best-so-far ant with
//     the highest weight.

// EAS is an Elitist Ant System colony.
type EAS struct {
	*Colony
	// Elite is the weight e of the best-so-far deposit (default m).
	Elite float64
}

// NewEASColony creates an elitist colony. elite <= 0 selects the
// recommended e = m.
func NewEASColony(in *tsp.Instance, p Params, elite float64) (*EAS, error) {
	c, err := New(in, p)
	if err != nil {
		return nil, err
	}
	if elite <= 0 {
		elite = float64(c.m)
	}
	return &EAS{Colony: c, Elite: elite}, nil
}

// UpdatePheromone applies the AS update plus the elitist bonus on the
// best-so-far tour.
func (e *EAS) UpdatePheromone() {
	defer e.phase("update")()
	e.Evaporate()
	e.Deposit()
	if e.BestTour != nil {
		e.depositTour(e.BestTour, e.Elite/float64(e.BestLen))
	}
	e.ComputeChoiceInfo()
}

// depositTour adds delta on every edge of the tour, symmetrically.
func (c *Colony) depositTour(tour []int32, delta float64) {
	n := c.n
	for i := 0; i < n; i++ {
		a := int(tour[i])
		b := int(tour[(i+1)%n])
		c.Pher[a*n+b] += delta
		c.Pher[b*n+a] = c.Pher[a*n+b]
	}
	c.PheromoneMeter.Ops += 10 * float64(n)
}

// Iterate runs one full EAS iteration.
func (e *EAS) Iterate(v Variant) {
	defer e.phase("iteration")()
	e.ConstructTours(v)
	e.UpdatePheromone()
}

// RankAS is a rank-based Ant System colony.
type RankAS struct {
	*Colony
	// W is the number of depositing ranks (default 6): the w-1 best
	// iteration ants deposit with weights w-1 … 1, and the best-so-far
	// tour deposits with weight w.
	W int
}

// NewRankColony creates a rank-based colony. w <= 0 selects the
// recommended w = 6.
func NewRankColony(in *tsp.Instance, p Params, w int) (*RankAS, error) {
	c, err := New(in, p)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		w = 6
	}
	if w > c.m {
		return nil, fmt.Errorf("aco: rank weight w = %d exceeds ant count %d", w, c.m)
	}
	return &RankAS{Colony: c, W: w}, nil
}

// UpdatePheromone applies the rank-based update.
func (r *RankAS) UpdatePheromone() {
	defer r.phase("update")()
	r.Evaporate()
	// Rank the iteration's ants by tour length.
	order := make([]int, r.m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.Lengths[order[a]] < r.Lengths[order[b]] })
	r.PheromoneMeter.Ops += float64(r.m) * 12 // sort cost, ~m log m

	for rank := 0; rank < r.W-1 && rank < len(order); rank++ {
		ant := order[rank]
		weight := float64(r.W - 1 - rank)
		tour := r.Tours[ant*r.n : (ant+1)*r.n]
		r.depositTour(tour, weight/float64(r.Lengths[ant]))
	}
	if r.BestTour != nil {
		r.depositTour(r.BestTour, float64(r.W)/float64(r.BestLen))
	}
	r.ComputeChoiceInfo()
}

// Iterate runs one full ASrank iteration.
func (r *RankAS) Iterate(v Variant) {
	defer r.phase("iteration")()
	r.ConstructTours(v)
	r.UpdatePheromone()
}

// BranchingFactor returns the average λ-branching factor of the pheromone
// matrix — the standard ACO convergence diagnostic (Gambardella & Dorigo):
// for each city, the number of incident edges whose trail exceeds
// τmin_i + λ·(τmax_i − τmin_i), averaged over cities. Values near 2 mean
// the colony has converged to a single tour through every city.
func (c *Colony) BranchingFactor(lambda float64) float64 {
	n := c.n
	total := 0
	for i := 0; i < n; i++ {
		row := c.Pher[i*n : (i+1)*n]
		lo, hi := math.Inf(1), math.Inf(-1)
		for j, v := range row {
			if j == i {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		cut := lo + lambda*(hi-lo)
		for j, v := range row {
			if j != i && v >= cut {
				total++
			}
		}
	}
	return float64(total) / float64(n)
}
