package tensor

import (
	"math"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// MMAS is the tensorized Max-Min Ant System, running the schedule of
// aco.MMAS: a single depositing ant per iteration (iteration-best,
// best-so-far every BestEvery-th), trails clamped to [τmin, τmax],
// optimistic τmax initialisation and stagnation resets. The whole
// pheromone stage — evaporation, the one deposit, the clamp and the weight
// refresh — is one fused flat sweep; the clamp is nonlinear, so MMAS never
// uses the AS engine's uniform weight-scaling shortcut.
type MMAS struct {
	*Engine
	aco.MMASSchedule
}

// NewMMAS creates a tensorized MMAS engine with trails at the estimated
// τmax from the greedy nearest-neighbour tour; d is as in NewWithDerived.
func NewMMAS(in *tsp.Instance, p aco.MMASParams, d *tsp.Derived) (*MMAS, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	e, err := newEngine(in, p.Params, d)
	if err != nil {
		return nil, err
	}
	m := &MMAS{Engine: e, MMASSchedule: aco.NewMMASSchedule(p, e.n, e.cnn)}
	m.resetTrails()
	return m, nil
}

// resetTrails re-initialises every trail (and weight) to τmax — also the
// stagnation recovery move.
func (m *MMAS) resetTrails() {
	m.resetTau(float32(powOf(m.P.Alpha)(m.TauMax)), float32(m.TauMax))
}

// UpdatePheromone applies the MMAS pheromone stage as one fused sweep,
// with the weight matrix as Δ: the weights are cleared and the depositing
// tour scatters into them, then a single traversal evaporates, deposits,
// clamps and overwrites each cell's Δ with its refreshed weight.
func (m *MMAS) UpdatePheromone(tour []int32, length int64) {
	clear(m.weight)
	m.deposit(tour, length)

	// The sweep is cell-independent (the clamp is per entry), so it
	// row-shards over the pool like the AS sweep.
	f := float32(1 - m.P.Rho)
	tmin, tmax := float32(m.TauMin), float32(m.TauMax)
	if m.P.Alpha == 1 {
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi]
			for i := range tau {
				t := tau[i]*f + w[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = t * eb[i]
			}
		})
	} else {
		alpha := m.P.Alpha
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi]
			for i := range tau {
				t := tau[i]*f + w[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = powF32(t, alpha) * eb[i]
			}
		})
	}
	m.refreshNN()
}

// Iterate runs one full MMAS iteration with the given construction
// variant.
func (m *MMAS) Iterate(v aco.Variant) {
	m.iterate(func() { m.ConstructTours(v) }, nil, func() {
		useBest, reset := m.Next(m.BestLen)
		ant := aco.IterationBest(m.Lengths)
		tour, length := m.Tours[ant*m.n:(ant+1)*m.n], m.Lengths[ant]
		if useBest {
			tour, length = m.BestTour, m.BestLen
		}
		m.UpdatePheromone(tour, length)
		if reset {
			m.resetTrails()
		}
	})
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
