package core

import (
	"fmt"
	"sort"

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
	defer e.span("deposit")()
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

// rankAnts returns the ant indices ordered by exact (integer) tour length.
func (e *Engine) rankAnts() []int {
	lengths := make([]int64, e.m)
	for k := 0; k < e.m; k++ {
		lengths[k] = e.In.TourLength(e.Tour(k))
	}
	order := make([]int, e.m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lengths[order[a]] < lengths[order[b]] })
	return order
}

// EASEngine runs the Elitist Ant System on the simulated device.
type EASEngine struct {
	*Engine
	Elite       float64
	tourVersion TourVersion
}

// NewEASEngine creates a GPU elitist colony. elite <= 0 selects e = m.
func NewEASEngine(dev *cuda.Device, in *tsp.Instance, p aco.Params, elite float64) (*EASEngine, error) {
	e, err := NewEngine(dev, in, p)
	if err != nil {
		return nil, err
	}
	if elite <= 0 {
		elite = float64(e.m)
	}
	return &EASEngine{Engine: e, Elite: elite, tourVersion: TourNNShared}, nil
}

// SetTourVersion selects the construction kernel.
func (e *EASEngine) SetTourVersion(v TourVersion) { e.tourVersion = v }

// Iterate runs one full EAS iteration: AS construction and update plus the
// elitist bonus deposit on the best-so-far tour.
func (e *EASEngine) Iterate() (*IterationResult, error) {
	if e.SampleBudget > 0 {
		return nil, fmt.Errorf("core: EAS Iterate needs full functional execution; clear SampleBudget")
	}
	defer e.span("iteration")()
	construct, err := e.ConstructTours(e.tourVersion)
	if err != nil {
		return nil, err
	}
	ant, l, err := e.ReadBest()
	if err != nil {
		return nil, err
	}
	update, err := e.UpdatePheromone(PherAtomicShared)
	if err != nil {
		return nil, err
	}
	best, bestLen := e.Best()
	bonus, err := e.DepositTourKernel(best, e.Elite/float64(bestLen), "eas-elite")
	if err != nil {
		return nil, err
	}
	update.add(bonus)
	return &IterationResult{Construct: construct, Update: update, BestAnt: ant, BestLen: l}, nil
}

// RankEngine runs the Rank-based Ant System on the simulated device.
type RankEngine struct {
	*Engine
	W           int
	tourVersion TourVersion
}

// NewRankEngine creates a GPU rank-based colony. w <= 0 selects w = 6.
func NewRankEngine(dev *cuda.Device, in *tsp.Instance, p aco.Params, w int) (*RankEngine, error) {
	e, err := NewEngine(dev, in, p)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		w = 6
	}
	if w > e.m {
		return nil, fmt.Errorf("core: rank weight w = %d exceeds ant count %d", w, e.m)
	}
	return &RankEngine{Engine: e, W: w, tourVersion: TourNNShared}, nil
}

// SetTourVersion selects the construction kernel.
func (r *RankEngine) SetTourVersion(v TourVersion) { r.tourVersion = v }

// Iterate runs one full ASrank iteration: evaporation plus w atomic-free
// rank-weighted deposits (the contended atomic deposit of plain AS
// disappears entirely, as only a handful of tours deposit).
func (r *RankEngine) Iterate() (*IterationResult, error) {
	if r.SampleBudget > 0 {
		return nil, fmt.Errorf("core: ASrank Iterate needs full functional execution; clear SampleBudget")
	}
	defer r.span("iteration")()
	construct, err := r.ConstructTours(r.tourVersion)
	if err != nil {
		return nil, err
	}
	ant, l, err := r.ReadBest()
	if err != nil {
		return nil, err
	}
	update, err := func() (*StageResult, error) {
		defer r.span("update")()
		update := &StageResult{}
		evap, err := r.EvaporateKernel()
		if err != nil {
			return nil, err
		}
		update.add(evap)
		order := r.rankAnts()
		for rank := 0; rank < r.W-1 && rank < len(order); rank++ {
			tour := r.Tour(order[rank])
			length := r.In.TourLength(tour)
			weight := float64(r.W - 1 - rank)
			dep, err := r.DepositTourKernel(tour, weight/float64(length), fmt.Sprintf("rank-%d", rank+1))
			if err != nil {
				return nil, err
			}
			update.add(dep)
		}
		best, bestLen := r.Best()
		dep, err := r.DepositTourKernel(best, float64(r.W)/float64(bestLen), "rank-best")
		if err != nil {
			return nil, err
		}
		update.add(dep)
		return update, nil
	}()
	if err != nil {
		return nil, err
	}
	return &IterationResult{Construct: construct, Update: update, BestAnt: ant, BestLen: l}, nil
}
