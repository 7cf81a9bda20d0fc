package core

import (
	"fmt"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// GPU engines for the remaining Ant System family variants (Elitist AS and
// Rank-based AS). Both reuse the paper's construction kernels unchanged;
// their pheromone stages compose the Engine's kernels with the atomic-free
// single-tour deposit below.

// DepositTourKernel adds delta on every edge of the given tour, one thread
// per edge, no atomics (exactly one tour deposits per launch). Used by the
// elitist bonus, the rank-based deposits and the MMAS update.
func (e *Engine) DepositTourKernel(tour []int32, delta float64, name string) (*cuda.LaunchResult, error) {
	n := e.n
	if len(tour) != n {
		return nil, fmt.Errorf("core: deposit tour has %d cities, want %d", len(tour), n)
	}
	defer e.Tracer.Phase("deposit")()
	if e.depositDev == nil {
		var err error
		if e.depositDev, err = e.Dev.MallocI32("deposit-tour", n); err != nil {
			return nil, err
		}
	}
	copy(e.depositDev.Data(), tour)
	d := float32(delta)
	threads := e.theta
	blocks := (n + threads - 1) / threads
	cfg := cuda.LaunchConfig{Grid: cuda.D1(blocks), Block: cuda.D1(threads)}
	return e.launch(cfg, name, int64(threads*6), func(b *cuda.Block) {
		b.Run(func(t *cuda.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			x := int(t.LdI32(e.depositDev, i))
			y := int(t.LdI32(e.depositDev, (i+1)%n))
			v := t.LdF32(e.pher, x*n+y) + d
			t.StF32(e.pher, x*n+y, v)
			t.StF32(e.pher, y*n+x, v)
			t.Charge(chargeMulAdd + 2*chargeIndex)
		})
	})
}

// EASEngine runs the Elitist Ant System on the simulated device.
type EASEngine struct {
	*Engine
}

// NewEASEngine creates a GPU elitist colony; d is as in EngineOptions.Derived.
func NewEASEngine(dev *cuda.Device, in *tsp.Instance, p aco.Params, d *tsp.Derived) (*EASEngine, error) {
	e, err := NewEngineWithOptions(dev, in, p, EngineOptions{Derived: d})
	if err != nil {
		return nil, err
	}
	return &EASEngine{Engine: e}, nil
}

// Iterate runs one full EAS iteration, constructing with tour kernel tv:
// AS construction and update plus the elitist bonus deposit, weighted
// e = m, on the best-so-far tour.
func (e *EASEngine) Iterate(tv TourVersion) (*IterationResult, error) {
	return e.iterate(func() (*StageResult, error) { return e.ConstructTours(tv) }, func(int) (*StageResult, error) {
		update, err := e.UpdatePheromone(PherAtomicShared)
		if err != nil {
			return nil, err
		}
		best, bestLen := e.Best()
		bonus, err := e.DepositTourKernel(best, float64(e.m)/float64(bestLen), "eas-elite")
		if err != nil {
			return nil, err
		}
		update.add(bonus)
		return update, nil
	})
}

// RankEngine runs the Rank-based Ant System on the simulated device.
type RankEngine struct {
	*Engine
}

// NewRankEngine creates a GPU rank-based colony of at least aco.RankW
// ants; d is as in EngineOptions.Derived.
func NewRankEngine(dev *cuda.Device, in *tsp.Instance, p aco.Params, d *tsp.Derived) (*RankEngine, error) {
	if err := aco.ValidateRank(p, in.N()); err != nil {
		return nil, err
	}
	e, err := NewEngineWithOptions(dev, in, p, EngineOptions{Derived: d})
	if err != nil {
		return nil, err
	}
	return &RankEngine{Engine: e}, nil
}

// Iterate runs one full ASrank iteration, constructing with tour kernel
// tv: evaporation plus aco.RankW atomic-free rank-weighted deposits (the
// contended atomic deposit of plain AS disappears entirely, as only a
// handful of tours deposit).
func (r *RankEngine) Iterate(tv TourVersion) (*IterationResult, error) {
	return r.iterate(func() (*StageResult, error) { return r.ConstructTours(tv) }, func(int) (*StageResult, error) {
		defer r.Tracer.Phase("update")()
		update := &StageResult{}
		evap, err := r.EvaporateKernel()
		if err != nil {
			return nil, err
		}
		update.add(evap)
		// The device lengths are float32; rank by the exact ones.
		lengths := make([]int64, r.m)
		for k := range lengths {
			lengths[k] = r.In.TourLength(r.Tour(k))
		}
		for rank, ant := range aco.RankedAnts(lengths) {
			weight := float64(aco.RankW - 1 - rank)
			dep, err := r.DepositTourKernel(r.Tour(ant), weight/float64(lengths[ant]), fmt.Sprintf("rank-%d", rank+1))
			if err != nil {
				return nil, err
			}
			update.add(dep)
		}
		best, bestLen := r.Best()
		dep, err := r.DepositTourKernel(best, aco.RankW/float64(bestLen), "rank-best")
		if err != nil {
			return nil, err
		}
		update.add(dep)
		return update, nil
	})
}
