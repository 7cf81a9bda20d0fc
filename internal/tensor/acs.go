package tensor

import (
	"antgpu/internal/aco"
	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

// ACS is the tensorized Ant Colony System: the pseudo-random proportional
// rule over the NN list, the per-edge local update τ ← (1-ξ)τ + ξτ0
// (closing edge included), and the best-so-far-only global update — each
// mirrored draw-for-draw from the reference aco.ACS. ACS touches single
// edges, so the incremental weight maintenance is entry-granular here: a
// local or global update refreshes exactly the two symmetric weight cells
// it dirtied.
type ACS struct {
	*Engine
	PA aco.ACSParams

	// Local-update constants hoisted out of the per-edge hot path.
	oneMinusXi float32
	xiTau0     float32
}

// NewACS creates a tensorized ACS engine with trails at aco.ACSTau0; d is
// as in NewWithDerived.
func NewACS(in *tsp.Instance, p aco.ACSParams, d *tsp.Derived) (*ACS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	e, err := newEngine(in, p.Params, d)
	if err != nil {
		return nil, err
	}
	e.tau0 = aco.ACSTau0(e.n, e.cnn)
	e.resetTau(float32(powOf(p.Alpha)(e.tau0)), float32(e.tau0))
	a := &ACS{Engine: e, PA: p}
	a.oneMinusXi = float32(1 - p.Xi)
	a.xiTau0 = float32(p.Xi * e.tau0)
	return a, nil
}

// ConstructTours builds all ants' tours with the pseudo-random
// proportional rule over the NN list, applying the local pheromone update
// edge by edge as ACS prescribes. Unlike the AS/MMAS path this stays
// serial regardless of the engine's worker count: the local update makes
// each ant read the trails every previous ant wrote mid-construction —
// sequential semantics by definition. (Skinderowicz's GPU ACS parallelizes
// it only by accepting different results; this engine keeps the reference
// semantics and parallelizes the stages that commute instead.) The ants
// still draw from the pure per-ant streams rng.AntSeed(seed, iteration,
// ant), so ACS and the parallel variants share one stream model.
func (a *ACS) ConstructTours() {
	e := a.Engine
	e.iteration++
	for ant := 0; ant < e.m; ant++ {
		g := rng.FromState(rng.AntSeed(e.P.Seed, e.iteration, ant))
		a.constructAnt(ant, &g)
	}
	e.reduceBest()
}

func (a *ACS) constructAnt(ant int, g *rng.LCG) {
	e := a.Engine
	n := e.n
	tour := e.Tours[ant*n : (ant+1)*n]
	mask := e.cs[0].mask
	for i := range mask {
		mask[i] = 1
	}

	cur := g.Intn(n)
	tour[0] = int32(cur)
	mask[cur] = 0
	length := int64(0)

	for step := 1; step < n; step++ {
		next := a.chooseNext(cur, g)
		tour[step] = int32(next)
		mask[next] = 0
		a.localUpdate(cur, next)
		length += int64(e.dist[cur*n+next])
		cur = next
	}
	// Close the tour with a local update on the final edge too.
	a.localUpdate(cur, int(tour[0]))
	length += int64(e.dist[cur*n+int(tour[0])])
	e.Lengths[ant] = length
}

// chooseNext applies the pseudo-random proportional rule: with probability
// q0 the feasible neighbour maximising the weight (mask-sink scan), else
// the cumulative-sum roulette over the NN list.
func (a *ACS) chooseNext(cur int, g *rng.LCG) int {
	e := a.Engine
	n, nn := e.n, e.nn
	list := e.nnList[cur*nn : cur*nn+nn]
	row := e.weight[cur*n : cur*n+n]
	mask := e.cs[0].mask

	q := g.Float64()
	if q < a.PA.Q0 {
		// Exploitation: visited lanes sink to exactly -1, unvisited keep
		// their weight bit-identically, so the branch-free argmax matches
		// the colony's first-strict-maximum tie-break.
		best := -1
		bestV := float32(-1)
		for _, j := range list {
			mb := mask[j]
			if v := row[j]*mb + (mb - 1); v > bestV {
				best, bestV = int(j), v
			}
		}
		if best >= 0 {
			return best
		}
		return e.bestFeasible(cur, mask)
	}

	// Biased exploration: two-pass masked cumulative sum over the gathered
	// row (total first, then the running-sum scan against the draw). The
	// local update dirties weights between steps, so ACS cannot use the
	// per-iteration wNN gather the AS/MMAS construction path enjoys.
	total := float32(0)
	for _, j := range list {
		total += row[j] * mask[j]
	}
	if total > 0 {
		r := g.Float64() * float64(total)
		last := -1
		acc := float32(0)
		for _, j := range list {
			w := row[j] * mask[j]
			if w > 0 {
				last = int(j)
				acc += w
				if float64(acc) >= r {
					return int(j)
				}
			}
		}
		if last >= 0 {
			return last
		}
	}
	return e.bestFeasible(cur, mask)
}

// localUpdate decays the crossed edge towards τ0 and refreshes exactly the
// two symmetric weight cells it dirtied.
func (a *ACS) localUpdate(i, j int) {
	e := a.Engine
	n := e.n
	v := a.oneMinusXi*e.tau[i*n+j] + a.xiTau0
	e.tau[i*n+j] = v
	e.tau[j*n+i] = v
	wv := powF32(v, e.P.Alpha) * e.etaBeta[i*n+j]
	e.weight[i*n+j] = wv
	e.weight[j*n+i] = wv
}

// GlobalUpdate applies the ACS global rule: evaporation and deposit on the
// best-so-far tour's edges only, with entry-granular weight refresh.
func (a *ACS) GlobalUpdate() {
	e := a.Engine
	if e.BestTour == nil {
		return
	}
	n := e.n
	f := float32(1 - e.P.Rho)
	delta := float32(e.P.Rho / float64(e.BestLen))
	prev := int(e.BestTour[n-1])
	for i := 0; i < n; i++ {
		c := int(e.BestTour[i])
		v := f*e.tau[prev*n+c] + delta
		e.tau[prev*n+c] = v
		e.tau[c*n+prev] = v
		wv := powF32(v, e.P.Alpha) * e.etaBeta[prev*n+c]
		e.weight[prev*n+c] = wv
		e.weight[c*n+prev] = wv
		prev = c
	}
}

// Iterate runs one full ACS iteration.
func (a *ACS) Iterate() {
	a.iterate(a.ConstructTours, nil, a.GlobalUpdate)
}
