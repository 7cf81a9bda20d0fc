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

// MMASSchedule is the MMAS rule around the pheromone kernels, the one copy
// the colony, the simulated GPU and the tensor engine all run: the trail
// limits [τmin, τmax] set from ρ, n and the best tour length, the
// iteration and stagnation counters, the choice between the iteration-best
// and the best-so-far depositor, and the decision to re-initialise the
// trails. Each backend keeps only its evaporate, deposit, clamp and reset
// kernels.
type MMASSchedule struct {
	TauMin, TauMax float64

	rho             float64
	cities          int
	bestEvery       int
	stagnationReset int
	best            int64 // best-so-far length the limits follow
	iter            int   // iterations advanced so far
	sinceBest       int   // iterations since the best-so-far last improved
}

// NewMMASSchedule starts the schedule of an n-city colony, with the limits
// set from the greedy tour length cnn until the first iteration.
func NewMMASSchedule(p MMASParams, n int, cnn int64) MMASSchedule {
	s := MMASSchedule{rho: p.Rho, cities: n, bestEvery: p.BestEvery, stagnationReset: p.StagnationReset,
		best: math.MaxInt64}
	s.setBounds(cnn)
	return s
}

// setBounds sets τmax = 1/(ρ·best) and τmin = τmax/(2n).
func (s *MMASSchedule) setBounds(best int64) {
	s.TauMax = 1 / (s.rho * float64(best))
	s.TauMin = s.TauMax / (2 * float64(s.cities))
}

// Next advances the schedule past one iteration whose tours are built;
// bestSoFar is the colony's best-so-far length after them. A new best
// moves [τmin, τmax] to it; otherwise the iteration counts as stagnant.
// useBest reports whether the best-so-far tour deposits this iteration in
// place of the iteration-best (every BestEvery-th iteration), and reset
// whether the trails go back to τmax after the deposit (after
// StagnationReset stagnant iterations in a row, which restarts the count).
func (s *MMASSchedule) Next(bestSoFar int64) (useBest, reset bool) {
	s.iter++
	if bestSoFar < s.best {
		s.best = bestSoFar
		s.setBounds(bestSoFar)
		s.sinceBest = 0
	} else {
		s.sinceBest++
	}
	if s.sinceBest >= s.stagnationReset {
		s.sinceBest = 0
		reset = true
	}
	return s.iter%s.bestEvery == 0, reset
}

// IterationBest returns the ant with the shortest of lengths, the first
// one on ties.
func IterationBest(lengths []int64) int {
	best := 0
	for k := 1; k < len(lengths); k++ {
		if lengths[k] < lengths[best] {
			best = k
		}
	}
	return best
}

// MMAS is a sequential Max-Min Ant System colony.
type MMAS struct {
	*Colony
	MMASSchedule
}

// NewMMASColony creates an MMAS colony with trails initialised to the
// (estimated) τmax from the greedy nearest-neighbour tour; d is as in
// NewWithDerived.
func NewMMASColony(in *tsp.Instance, p MMASParams, d *tsp.Derived) (*MMAS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	c, err := newColony(in, p.Params, d)
	if err != nil {
		return nil, err
	}
	m := &MMAS{Colony: c, MMASSchedule: NewMMASSchedule(p, c.n, c.cnn)}
	m.resetTrails()
	return m, nil
}

// resetTrails re-initialises every trail to τmax (also the stagnation
// recovery move).
func (m *MMAS) resetTrails() {
	for i := range m.Pher {
		m.Pher[i] = m.TauMax
	}
	m.ComputeChoiceInfo()
	nn := float64(m.n) * float64(m.n)
	m.PheromoneMeter.Ops += nn
	m.PheromoneMeter.Bytes += 8 * nn
}

// UpdatePheromone applies the MMAS pheromone stage: global evaporation,
// the deposit of the one depositing tour of the given length, trail
// clamping, and the choice recomputation.
func (m *MMAS) UpdatePheromone(tour []int32, length int64) {
	defer m.Tracer.Phase("update")()
	m.Evaporate()
	m.depositTour(tour, 1/float64(length))

	// Clamp to [τmin, τmax].
	for i := range m.Pher {
		if m.Pher[i] < m.TauMin {
			m.Pher[i] = m.TauMin
		} else if m.Pher[i] > m.TauMax {
			m.Pher[i] = m.TauMax
		}
	}
	nn := float64(m.n) * float64(m.n)
	m.PheromoneMeter.Ops += 2 * nn
	m.PheromoneMeter.Bytes += 16 * nn

	m.ComputeChoiceInfo()
}

// Iterate runs one full MMAS iteration with the given construction
// variant.
func (m *MMAS) Iterate(v Variant) {
	defer m.Tracer.Phase("iteration")()
	m.ConstructTours(v)
	useBest, reset := m.Next(m.BestLen)
	ant := IterationBest(m.Lengths)
	tour, length := m.Tours[ant*m.n:(ant+1)*m.n], m.Lengths[ant]
	if useBest {
		tour, length = m.BestTour, m.BestLen
	}
	m.UpdatePheromone(tour, length)
	if reset {
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
