package tensor

import (
	"math"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// MMAS is the tensorized Max-Min Ant System, mirroring aco.MMAS: a single
// depositing ant per iteration (iteration-best, best-so-far every
// BestEvery-th), trails clamped to [τmin, τmax], optimistic τmax
// initialisation and stagnation resets. The whole pheromone stage —
// evaporation, the one deposit, the clamp and the weight refresh — is one
// fused flat sweep; the clamp is nonlinear, so MMAS never uses the AS
// engine's uniform weight-scaling shortcut.
type MMAS struct {
	*Engine
	PM aco.MMASParams

	TauMin, TauMax float64
	iterSinceBest  int
	iterCount      int
}

// NewMMAS creates a tensorized MMAS engine with trails at the estimated
// τmax from the greedy nearest-neighbour tour.
func NewMMAS(in *tsp.Instance, p aco.MMASParams) (*MMAS, error) {
	return NewMMASWithDerived(in, p, nil)
}

// NewMMASWithDerived is NewMMAS drawing NN lists and C^nn from precomputed
// derived data; nil recomputes them.
func NewMMASWithDerived(in *tsp.Instance, p aco.MMASParams, d *tsp.Derived) (*MMAS, error) {
	return NewMMASWithOptions(in, p, d, Options{})
}

// NewMMASWithOptions is NewMMASWithDerived with engine options (the
// per-request worker override).
func NewMMASWithOptions(in *tsp.Instance, p aco.MMASParams, d *tsp.Derived, o Options) (*MMAS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	e, err := newEngine(in, p.Params, d, o)
	if err != nil {
		return nil, err
	}
	m := &MMAS{Engine: e, PM: p}
	m.setBounds(e.cnn)
	m.resetTrails()
	return m, nil
}

// setBounds recomputes [τmin, τmax] from the best known tour length.
func (m *MMAS) setBounds(best int64) {
	m.TauMax = 1 / (m.P.Rho * float64(best))
	m.TauMin = m.TauMax / (2 * float64(m.n))
}

// resetTrails re-initialises every trail (and weight) to τmax — also the
// stagnation recovery move.
func (m *MMAS) resetTrails() {
	m.resetTau(float32(powOf(m.P.Alpha)(m.TauMax)), float32(m.TauMax))
	m.iterSinceBest = 0
}

// UpdatePheromone applies the MMAS rule as one fused sweep: the depositing
// ant's Δ scatters first, then a single traversal evaporates, deposits,
// clamps and refreshes the weight cell by cell.
func (m *MMAS) UpdatePheromone(iterBest []int32, iterBestLen int64) {
	start := time.Now()
	tour := iterBest
	length := iterBestLen
	if m.iterCount%m.PM.BestEvery == 0 && m.BestTour != nil {
		tour = m.BestTour
		length = m.BestLen
	}
	m.scatterDeposit(tour, float32(1/float64(length)), false)

	// The sweep is cell-independent (the clamp is per entry), so it
	// row-shards over the pool like the AS applyUpdate.
	f := float32(1 - m.P.Rho)
	tmin, tmax := float32(m.TauMin), float32(m.TauMax)
	if m.P.Alpha == 1 {
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb, del := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi], m.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = t * eb[i]
				del[i] = 0
			}
		})
	} else {
		alpha := m.P.Alpha
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb, del := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi], m.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = powF32(t, alpha) * eb[i]
				del[i] = 0
			}
		})
	}
	m.refreshNN()
	m.span("update", time.Since(start).Seconds())
}

// Iterate runs one full MMAS iteration with the given construction
// variant.
func (m *MMAS) Iterate(v aco.Variant) {
	if m.Tracer != nil {
		m.Tracer.Begin("iteration")
		defer m.Tracer.End()
	}
	m.iterCount++
	prevBest := m.BestLen
	m.ConstructTours(v)

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

// BoundsValid reports whether every trail lies in [τmin, τmax] within a
// small tolerance, for invariant tests.
func (m *MMAS) BoundsValid() bool {
	lo := float32(m.TauMin * (1 - 1e-6))
	hi := float32(m.TauMax * (1 + 1e-6))
	for _, v := range m.tau {
		if v < lo || v > hi || math.IsNaN(float64(v)) {
			return false
		}
	}
	return true
}
