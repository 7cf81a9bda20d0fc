package core

import (
	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// GPU Max-Min Ant System: construction reuses any of the paper's tour
// kernels; the pheromone stage becomes three small element-wise kernels —
// evaporation, a single-ant deposit over the chosen tour, and the trail
// clamp to [τmin, τmax]. None of them needs atomics: exactly one ant
// deposits, so the paper's deposit-contention problem disappears, which is
// one reason the related work (Jiening et al.) chose MMAS for early GPU
// ports.
type MMASEngine struct {
	*Engine
	aco.MMASSchedule
}

// NewMMASEngine creates a GPU MMAS colony with trails at τmax; d is as in
// EngineOptions.Derived.
func NewMMASEngine(dev *cuda.Device, in *tsp.Instance, p aco.MMASParams, d *tsp.Derived) (*MMASEngine, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	e, err := NewEngineWithOptions(dev, in, p.Params, EngineOptions{Derived: d})
	if err != nil {
		return nil, err
	}
	m := &MMASEngine{Engine: e, MMASSchedule: aco.NewMMASSchedule(p, e.n, e.cnn)}
	m.pher.Fill(float32(m.TauMax))
	return m, nil
}

// resetTrailsKernel re-initialises every trail to τmax on the device.
func (m *MMASEngine) resetTrailsKernel() (*cuda.LaunchResult, error) {
	e := m.Engine
	cells := e.n * e.n
	tmax := float32(m.TauMax)
	grid := (cells + choiceBlock - 1) / choiceBlock
	cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(choiceBlock), LatencyOverlap: 4}
	return e.launch(cfg, "mmas-reset", choiceBlock, func(b *cuda.Block) {
		b.Run(func(t *cuda.Thread) {
			gid := t.GlobalID()
			if gid >= cells {
				return
			}
			t.StF32(e.pher, gid, tmax)
		})
	})
}

// clampKernel bounds every trail to [τmin, τmax], one thread per cell.
func (m *MMASEngine) clampKernel() (*cuda.LaunchResult, error) {
	e := m.Engine
	cells := e.n * e.n
	lo := float32(m.TauMin)
	hi := float32(m.TauMax)
	grid := (cells + choiceBlock - 1) / choiceBlock
	cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(choiceBlock), LatencyOverlap: 4}
	return e.launch(cfg, "mmas-clamp", choiceBlock*2, func(b *cuda.Block) {
		b.Run(func(t *cuda.Thread) {
			gid := t.GlobalID()
			if gid >= cells {
				return
			}
			v := t.LdF32(e.pher, gid)
			t.Charge(2 * chargeCompare)
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			t.StF32(e.pher, gid, v)
		})
	})
}

// Iterate runs one full GPU MMAS iteration, constructing with tour kernel
// tv, and returns its stages.
func (m *MMASEngine) Iterate(tv TourVersion) (*IterationResult, error) {
	e := m.Engine
	return e.iterate(func() (*StageResult, error) { return e.ConstructTours(tv) }, func(ant int) (*StageResult, error) {
		best, bestLen := e.Best()
		useBest, reset := m.Next(bestLen)
		tour, length := e.Tour(ant), e.lastBest
		if useBest {
			tour, length = best, bestLen
		}
		defer e.Tracer.Phase("update")()
		update := &StageResult{}
		evap, err := e.EvaporateKernel()
		if err != nil {
			return nil, err
		}
		update.add(evap)
		dep, err := e.DepositTourKernel(tour, 1/float64(length), "mmas-deposit")
		if err != nil {
			return nil, err
		}
		update.add(dep)
		clamp, err := m.clampKernel()
		if err != nil {
			return nil, err
		}
		update.add(clamp)

		if reset {
			reset, err := m.resetTrailsKernel()
			if err != nil {
				return nil, err
			}
			update.add(reset)
		}
		return update, nil
	})
}

// BoundsValid reports whether every device trail lies in [τmin, τmax]
// within float32 tolerance, for invariant tests.
func (m *MMASEngine) BoundsValid() bool {
	lo := float32(m.TauMin) * (1 - 1e-5)
	hi := float32(m.TauMax) * (1 + 1e-5)
	for _, v := range m.Pheromone() {
		if v < lo || v > hi {
			return false
		}
	}
	return true
}
