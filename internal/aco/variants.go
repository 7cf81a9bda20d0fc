package aco

import (
	"sort"

	"antgpu/internal/tsp"
)

// The remaining classic variants of the Ant System family (Dorigo &
// Stützle 2004, ch. 3), completing the set next to AS, ACS and MMAS:
//
//   - Elitist AS (EAS): every iteration the best-so-far tour receives an
//     additional weighted deposit e·(1/C_bs), with e = m;
//   - Rank-based AS (ASrank): only the RankW-1 best-ranked ants of the
//     iteration deposit, weighted by rank, plus the best-so-far ant with
//     the highest weight RankW.

// RankW is the number of depositing ranks w of the rank-based Ant System,
// the recommended 6: the w-1 best ants of an iteration deposit with
// weights w-1 … 1, and the best-so-far tour deposits with weight w.
const RankW = 6

// ValidateRank checks a rank-based colony's parameters on n cities:
// Params.Validate and at least RankW ants, wrapping ErrInvalidParams.
func ValidateRank(p Params, n int) error {
	if err := p.Validate(n); err != nil {
		return err
	}
	if m := p.AntCount(n); m < RankW {
		return invalidf("rank weight w = %d exceeds ant count %d", RankW, m)
	}
	return nil
}

// RankedAnts returns the RankW-1 ants of lengths that deposit in a
// rank-based iteration, best first: the ant at position r deposits with
// weight RankW-1-r. The ranking is sort.Slice over the ant indices, which
// is not stable, so every backend calls this one function to order tied
// ants alike.
func RankedAnts(lengths []int64) []int {
	order := make([]int, len(lengths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lengths[order[a]] < lengths[order[b]] })
	return order[:min(RankW-1, len(order))]
}

// EAS is an Elitist Ant System colony.
type EAS struct {
	*Colony
}

// NewEASColony creates an elitist colony; d is as in NewWithDerived.
func NewEASColony(in *tsp.Instance, p Params, d *tsp.Derived) (*EAS, error) {
	c, err := NewWithDerived(in, p, d)
	if err != nil {
		return nil, err
	}
	return &EAS{Colony: c}, nil
}

// UpdatePheromone applies the AS update plus the elitist bonus on the
// best-so-far tour, weighted e = m.
func (e *EAS) UpdatePheromone() {
	defer e.Tracer.Phase("update")()
	e.Evaporate()
	e.Deposit()
	if e.BestTour != nil {
		e.depositTour(e.BestTour, float64(e.m)/float64(e.BestLen))
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
	defer e.Tracer.Phase("iteration")()
	e.ConstructTours(v)
	e.UpdatePheromone()
}

// RankAS is a rank-based Ant System colony.
type RankAS struct {
	*Colony
}

// NewRankColony creates a rank-based colony of at least RankW ants; d is
// as in NewWithDerived.
func NewRankColony(in *tsp.Instance, p Params, d *tsp.Derived) (*RankAS, error) {
	if err := ValidateRank(p, in.N()); err != nil {
		return nil, err
	}
	c, err := NewWithDerived(in, p, d)
	if err != nil {
		return nil, err
	}
	return &RankAS{Colony: c}, nil
}

// UpdatePheromone applies the rank-based update.
func (r *RankAS) UpdatePheromone() {
	defer r.Tracer.Phase("update")()
	r.Evaporate()
	ranked := RankedAnts(r.Lengths)
	r.PheromoneMeter.Ops += float64(r.m) * 12 // sort cost, ~m log m

	for rank, ant := range ranked {
		tour := r.Tours[ant*r.n : (ant+1)*r.n]
		r.depositTour(tour, float64(RankW-1-rank)/float64(r.Lengths[ant]))
	}
	if r.BestTour != nil {
		r.depositTour(r.BestTour, RankW/float64(r.BestLen))
	}
	r.ComputeChoiceInfo()
}

// Iterate runs one full ASrank iteration.
func (r *RankAS) Iterate(v Variant) {
	defer r.Tracer.Phase("iteration")()
	r.ConstructTours(v)
	r.UpdatePheromone()
}
