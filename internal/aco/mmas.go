package aco

import (
	"math"

	"antgpu/internal/tsp"
)

// Max-Min Ant System (Stützle & Hoos 2000), the ACO variant the paper's
// related work discusses for GPUs (Jiening et al. implement it for the tour
// stage). Differences from the Ant System:
//
//   - only one ant deposits per iteration — the iteration-best ant, with
//     the best-so-far ant substituted every BestEvery iterations;
//   - pheromone values are clamped to [τmin, τmax] with
//     τmax = 1/(ρ·C_bs) and τmin = τmax/(2n);
//   - trails start at τmax (optimistic initialisation), and are
//     re-initialised on stagnation (no improvement for StagnationReset
//     iterations).

// MMASParams extends Params with the MMAS-specific settings. Defaults
// follow Stützle & Hoos: ρ = 0.02, m = n, the best-so-far ant every 25th
// iteration, re-initialisation after 250 stagnant iterations.
type MMASParams struct {
	Params
	BestEvery       int // use the best-so-far ant every k-th iteration
	StagnationReset int // re-initialise after this many stagnant iterations
}

// DefaultMMASParams returns the standard MMAS settings.
func DefaultMMASParams() MMASParams {
	p := DefaultParams()
	p.Rho = 0.02
	return MMASParams{Params: p, BestEvery: 25, StagnationReset: 250}
}

// WithDefaults returns a copy of p with every zero-valued (unset) field
// replaced by its DefaultMMASParams value; a zero Seed falls back to seed
// first (the AS seed of the enclosing solve options), so a caller setting
// only the base seed still steers the MMAS random streams.
func (p MMASParams) WithDefaults(seed uint64) MMASParams {
	def := DefaultMMASParams()
	if p.Seed == 0 {
		p.Seed = seed
	}
	p.Params = p.Params.withDefaultsFrom(def.Params)
	if p.BestEvery == 0 {
		p.BestEvery = def.BestEvery
	}
	if p.StagnationReset == 0 {
		p.StagnationReset = def.StagnationReset
	}
	return p
}

// Validate checks MMAS parameter sanity. Failures wrap ErrInvalidParams.
func (p *MMASParams) Validate(n int) error {
	if err := p.Params.Validate(n); err != nil {
		return err
	}
	if p.BestEvery < 1 {
		return invalidf("MMAS BestEvery = %d, need >= 1", p.BestEvery)
	}
	if p.StagnationReset < 1 {
		return invalidf("MMAS StagnationReset = %d, need >= 1", p.StagnationReset)
	}
	return nil
}

// MMAS is a sequential Max-Min Ant System colony.
type MMAS struct {
	*Colony
	PM MMASParams

	TauMin, TauMax float64
	iterSinceBest  int
	iterCount      int
}

// NewMMASColony creates an MMAS colony with trails initialised to the
// (estimated) τmax from the greedy nearest-neighbour tour.
func NewMMASColony(in *tsp.Instance, p MMASParams) (*MMAS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	c, err := New(in, p.Params)
	if err != nil {
		return nil, err
	}
	m := &MMAS{Colony: c, PM: p}
	cnn := in.TourLength(in.NearestNeighbourTour(0))
	m.setBounds(cnn)
	m.resetTrails()
	return m, nil
}

// setBounds recomputes [τmin, τmax] from the best known tour length.
func (m *MMAS) setBounds(best int64) {
	m.TauMax = 1 / (m.P.Rho * float64(best))
	m.TauMin = m.TauMax / (2 * float64(m.n))
}

// resetTrails re-initialises every trail to τmax (also the stagnation
// recovery move).
func (m *MMAS) resetTrails() {
	for i := range m.Pher {
		m.Pher[i] = m.TauMax
	}
	m.ComputeChoiceInfo()
	m.iterSinceBest = 0
	nn := float64(m.n) * float64(m.n)
	m.PheromoneMeter.Ops += nn
	m.PheromoneMeter.Bytes += 8 * nn
}

// UpdatePheromone applies the MMAS rule: global evaporation, a single
// depositing ant (iteration-best, or best-so-far every BestEvery-th
// iteration), trail clamping, and the choice recomputation.
func (m *MMAS) UpdatePheromone(iterBest []int32, iterBestLen int64) {
	defer m.phase("update")()
	m.Evaporate()

	tour := iterBest
	length := iterBestLen
	if m.iterCount%m.PM.BestEvery == 0 && m.BestTour != nil {
		tour = m.BestTour
		length = m.BestLen
	}
	n := m.n
	delta := 1 / float64(length)
	for i := 0; i < n; i++ {
		a := int(tour[i])
		b := int(tour[(i+1)%n])
		m.Pher[a*n+b] += delta
		m.Pher[b*n+a] = m.Pher[a*n+b]
	}
	m.PheromoneMeter.Ops += 10 * float64(n)

	// Clamp to [τmin, τmax].
	for i := range m.Pher {
		if m.Pher[i] < m.TauMin {
			m.Pher[i] = m.TauMin
		} else if m.Pher[i] > m.TauMax {
			m.Pher[i] = m.TauMax
		}
	}
	nn := float64(n) * float64(n)
	m.PheromoneMeter.Ops += 2 * nn
	m.PheromoneMeter.Bytes += 16 * nn

	m.ComputeChoiceInfo()
}

// Iterate runs one full MMAS iteration with the given construction
// variant.
func (m *MMAS) Iterate(v Variant) {
	defer m.phase("iteration")()
	m.iterCount++
	prevBest := m.BestLen
	m.ConstructTours(v)

	// Find the iteration-best ant.
	bestAnt := 0
	for k := 1; k < m.m; k++ {
		if m.Lengths[k] < m.Lengths[bestAnt] {
			bestAnt = k
		}
	}
	iterBest := m.Tours[bestAnt*m.n : (bestAnt+1)*m.n]

	if m.BestLen < prevBest {
		m.setBounds(m.BestLen)
		m.iterSinceBest = 0
	} else {
		m.iterSinceBest++
	}
	m.UpdatePheromone(iterBest, m.Lengths[bestAnt])

	if m.iterSinceBest >= m.PM.StagnationReset {
		m.resetTrails()
	}
}

// BoundsValid reports whether every trail lies in [τmin, τmax] (within a
// small tolerance), for invariant tests.
func (m *MMAS) BoundsValid() bool {
	lo := m.TauMin * (1 - 1e-9)
	hi := m.TauMax * (1 + 1e-9)
	for _, v := range m.Pher {
		if v < lo || v > hi || math.IsNaN(v) {
			return false
		}
	}
	return true
}
