package core

import (
	"fmt"
	"math"
)

// ConstructTours runs one tour-construction stage with the selected
// version. The stage includes every kernel the version needs per iteration:
// the choice kernel for versions 2+ (version 1 recomputes the heuristic
// in-kernel, which is exactly its deficiency), the random-number
// pre-generation kernel for the texture version, and the construction
// kernel itself — so stage times compose the same way the paper's Table II
// rows do.
func (e *Engine) ConstructTours(v TourVersion) (*StageResult, error) {
	defer e.Tracer.Phase("construct")()
	e.iteration++
	stage := &StageResult{}

	if v != TourBaseline {
		r, err := e.ChoiceKernel()
		if err != nil {
			return nil, err
		}
		stage.add(r)
	}
	// Versions 3–6 consume randoms pre-generated by a device-function
	// kernel (the paper's "without CURAND" replacement); version 6 then
	// reads them through the texture cache.
	if v == TourDeviceRNG || v == TourNNList || v == TourNNShared || v == TourNNSharedTexture {
		r, err := e.FillRandoms()
		if err != nil {
			return nil, err
		}
		stage.add(r)
	}

	if v.DataParallel() {
		res, err := e.tourDataParallel(v)
		if err != nil {
			return nil, err
		}
		stage.add(res)
	} else {
		res, err := e.tourTask(v)
		if err != nil {
			return nil, err
		}
		stage.add(res)
	}
	return stage, nil
}

// ReadBest scans the constructed tours on the host, recomputes their exact
// integer lengths, updates the engine's best-so-far, and returns the index
// and length of this iteration's best ant. It must only be called after an
// unsampled construction stage (every block executed), since sampled
// launches leave most tours unbuilt.
func (e *Engine) ReadBest() (int, int64, error) {
	bestAnt := -1
	bestLen := int64(math.MaxInt64)
	sum := int64(0)
	for k := 0; k < e.m; k++ {
		tour := e.Tour(k)
		if err := e.In.ValidTour(tour); err != nil {
			return 0, 0, fmt.Errorf("core: ant %d produced an invalid tour: %w", k, err)
		}
		l := e.In.TourLength(tour)
		sum += l
		if l < bestLen {
			bestAnt, bestLen = k, l
		}
	}
	e.lastBest, e.lastMean = bestLen, float64(sum)/float64(e.m)
	if bestLen < e.bestLen {
		e.bestLen = bestLen
		if e.bestTour == nil {
			e.bestTour = make([]int32, e.n)
		}
		copy(e.bestTour, e.Tour(bestAnt))
	}
	return bestAnt, bestLen, nil
}

// Best returns the best tour seen by ReadBest so far and its length.
func (e *Engine) Best() ([]int32, int64) { return e.bestTour, e.bestLen }

// IterationResult reports the stages of one full GPU iteration.
type IterationResult struct {
	Construct *StageResult
	Update    *StageResult
	BestAnt   int
	BestLen   int64
}

// Seconds returns the total simulated iteration time.
func (r *IterationResult) Seconds() float64 {
	return r.Construct.Seconds() + r.Update.Seconds()
}

// iterate is the iteration skeleton every GPU algorithm runs: inside one
// "iteration" span it runs construct, scans the tours with ReadBest and
// runs update with the iteration-best ant. Sampling must be disabled
// (SampleBudget = 0), since sampled launches leave most tours unbuilt.
func (e *Engine) iterate(construct func() (*StageResult, error), update func(ant int) (*StageResult, error)) (*IterationResult, error) {
	if e.SampleBudget > 0 {
		return nil, fmt.Errorf("core: Iterate needs full functional execution; clear SampleBudget (%d)", e.SampleBudget)
	}
	defer e.Tracer.Phase("iteration")()
	c, err := construct()
	if err != nil {
		return nil, err
	}
	ant, l, err := e.ReadBest()
	if err != nil {
		return nil, err
	}
	u, err := update(ant)
	if err != nil {
		return nil, err
	}
	return &IterationResult{Construct: c, Update: u, BestAnt: ant, BestLen: l}, nil
}

// Iterate runs one full iteration — tour construction, best tracking,
// pheromone update — with the selected kernel versions.
func (e *Engine) Iterate(tv TourVersion, pv PherVersion) (*IterationResult, error) {
	return e.iterate(func() (*StageResult, error) { return e.ConstructTours(tv) },
		func(int) (*StageResult, error) { return e.UpdatePheromone(pv) })
}
