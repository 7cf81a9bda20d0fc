package aco

import (
	"math"

	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

// The paper's conclusion names the Ant Colony System (ACS) as the natural
// next variant to port to the GPU ("We will also implement other ACO
// algorithms, such as the Ant Colony System, which can also be efficiently
// implemented on the GPU"). This file provides the sequential ACS, following
// Dorigo & Gambardella (1997) as presented in Dorigo & Stützle (2004):
//
//   - pseudo-random proportional rule: with probability q0 the ant moves to
//     the feasible city maximising τ·η^β, otherwise it applies the usual
//     random-proportional rule;
//   - local pheromone update: every crossed edge decays towards τ0
//     (τ ← (1-ξ)τ + ξτ0), which diversifies the colony within an iteration;
//   - global update: only the best-so-far ant deposits, and evaporation
//     applies only to the edges of its tour (τ ← (1-ρ)τ + ρ/C_bs).

// ACSParams extends Params with the ACS-specific settings. Defaults follow
// Dorigo & Stützle: q0 = 0.9, ξ = 0.1, ρ = 0.1, m = 10 ants.
type ACSParams struct {
	Params
	Q0 float64 // exploitation probability
	Xi float64 // local evaporation ξ
}

// DefaultACSParams returns the standard ACS settings.
func DefaultACSParams() ACSParams {
	p := DefaultParams()
	p.Rho = 0.1
	p.Ants = 10
	return ACSParams{Params: p, Q0: 0.9, Xi: 0.1}
}

// WithDefaults returns a copy of p with every zero-valued (unset) field
// replaced by its DefaultACSParams value; a zero Seed falls back to seed
// first (the AS seed of the enclosing solve options). Note the ACS default
// ant count is 10, so an unset Ants selects 10, not m = n.
func (p ACSParams) WithDefaults(seed uint64) ACSParams {
	def := DefaultACSParams()
	if p.Seed == 0 {
		p.Seed = seed
	}
	p.Params = p.Params.withDefaultsFrom(def.Params)
	if p.Q0 == 0 {
		p.Q0 = def.Q0
	}
	if p.Xi == 0 {
		p.Xi = def.Xi
	}
	return p
}

// Validate checks ACS parameter sanity. Failures wrap ErrInvalidParams.
func (p *ACSParams) Validate(n int) error {
	if err := p.Params.Validate(n); err != nil {
		return err
	}
	if p.Q0 < 0 || p.Q0 > 1 {
		return invalidf("q0 = %v out of [0, 1]", p.Q0)
	}
	if p.Xi <= 0 || p.Xi >= 1 {
		return invalidf("xi = %v out of (0, 1)", p.Xi)
	}
	return nil
}

// ACS is a sequential Ant Colony System colony. It reuses the Colony's
// state (pheromone, choice information, tours, meters) and overrides the
// construction and pheromone rules.
type ACS struct {
	*Colony
	PA ACSParams
}

// ACSTau0 is ACS's initial trail τ0 = 1/(n·C^nn) for n cities and the
// greedy tour length cnn — much smaller than the Ant System's m/C^nn — so
// the local update has room to decay trails towards it.
func ACSTau0(n int, cnn int64) float64 { return 1 / (float64(n) * float64(cnn)) }

// NewACSColony creates an ACS colony with trails at ACSTau0; d is as in
// NewWithDerived.
func NewACSColony(in *tsp.Instance, p ACSParams, d *tsp.Derived) (*ACS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	c, err := newColony(in, p.Params, d)
	if err != nil {
		return nil, err
	}
	c.initTrails(ACSTau0(c.n, c.cnn))
	return &ACS{Colony: c, PA: p}, nil
}

// ConstructTours builds all ants' tours with the pseudo-random proportional
// rule over the NN list and applies the local pheromone update edge by
// edge, as ACS prescribes.
func (a *ACS) ConstructTours() {
	c := a.Colony
	c.iteration++
	mtr := Meter{}
	for ant := 0; ant < c.m; ant++ {
		g := rng.FromState(rng.AntSeed(c.P.Seed, c.iteration, ant))
		a.constructAnt(ant, &g, &mtr)
	}
	c.ConstructMeter.Add(&mtr)
	c.cpuSpan("construct", &mtr)
}

func (a *ACS) constructAnt(ant int, g *rng.LCG, mtr *Meter) {
	c := a.Colony
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
		next := a.chooseNext(cur, g, mtr)
		tour[step] = int32(next)
		c.visited[next] = true
		a.localUpdate(cur, next, mtr)
		cur = next
		mtr.Ops += 4
	}
	// Close the tour with a local update on the final edge too.
	a.localUpdate(cur, int(tour[0]), mtr)
	c.finishAnt(ant, tour, mtr)
}

// chooseNext applies the pseudo-random proportional rule over the NN list,
// with the usual fall-back-to-best when the list is exhausted.
func (a *ACS) chooseNext(cur int, g *rng.LCG, mtr *Meter) int {
	c := a.Colony
	n, nn := c.n, c.nn
	list := c.nnList[cur*nn : (cur+1)*nn]
	row := c.Choice[cur*n:]

	q := g.Float64()
	mtr.RNG++
	if q < a.PA.Q0 {
		// Exploitation: the feasible neighbour maximising τ·η^β.
		best, bestV := -1, -1.0
		for k := 0; k < nn; k++ {
			j := list[k]
			if !c.visited[j] && row[j] > bestV {
				best, bestV = int(j), row[j]
			}
		}
		mtr.Ops += 5 * float64(nn)
		if best >= 0 {
			return best
		}
		return c.bestFeasible(cur, mtr)
	}

	// Biased exploration: random-proportional over the NN list.
	sum := 0.0
	for k := 0; k < nn; k++ {
		j := list[k]
		if c.visited[j] {
			c.probs[k] = 0
		} else {
			c.probs[k] = row[j]
			sum += row[j]
		}
	}
	mtr.Ops += 8 * float64(nn)
	if sum > 0 {
		r := g.Float64() * sum
		mtr.RNG++
		if k := RouletteSelect(c.probs, nn, r); k >= 0 {
			mtr.Ops += 3 * float64(k+1)
			return int(list[k])
		}
	}
	mtr.Fallbacks++
	return c.bestFeasible(cur, mtr)
}

// localUpdate decays the crossed edge towards τ0 and refreshes its choice
// information, symmetrically.
func (a *ACS) localUpdate(i, j int, mtr *Meter) {
	c := a.Colony
	n := c.n
	xi := a.PA.Xi
	v := (1-xi)*c.Pher[i*n+j] + xi*c.tau0
	c.Pher[i*n+j] = v
	c.Pher[j*n+i] = v
	a.refreshChoice(i, j)
	mtr.Ops += 10
	mtr.Pow += 2
}

// GlobalUpdate applies the ACS global rule: evaporation and deposit on the
// best-so-far tour's edges only.
func (a *ACS) GlobalUpdate() {
	c := a.Colony
	if c.BestTour == nil {
		return
	}
	n := c.n
	rho := c.P.Rho
	delta := rho / float64(c.BestLen)
	for i := 0; i < n; i++ {
		x := int(c.BestTour[i])
		y := int(c.BestTour[(i+1)%n])
		v := (1-rho)*c.Pher[x*n+y] + delta
		c.Pher[x*n+y] = v
		c.Pher[y*n+x] = v
		a.refreshChoice(x, y)
	}
	mtr := Meter{Ops: 14 * float64(n), Pow: 2 * float64(n)}
	c.PheromoneMeter.Add(&mtr)
	c.cpuSpan("update", &mtr)
}

// refreshChoice recomputes the choice entries of one symmetric edge (ACS
// touches single edges, so recomputing the whole matrix would be wasteful).
func (a *ACS) refreshChoice(i, j int) {
	c := a.Colony
	n := c.n
	v := powAlpha(c.Pher[i*n+j], c.P.Alpha) * powAlpha(c.heuristic(c.In.Dist(i, j)), c.P.Beta)
	c.Choice[i*n+j] = v
	c.Choice[j*n+i] = v
}

// powAlpha is math.Pow with the α=1 / β=2 fast paths the hot loop hits.
func powAlpha(x, p float64) float64 {
	switch p {
	case 1:
		return x
	case 2:
		return x * x
	}
	return math.Pow(x, p)
}

// Iterate runs one full ACS iteration.
func (a *ACS) Iterate() {
	defer a.Tracer.Phase("iteration")()
	a.ConstructTours()
	a.GlobalUpdate()
}
