package core_test

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// TestDataParallelSelectionNeverEmitsTabuCity: the data-parallel kernels
// score each city as choice·random·tabu-bit and pick the block-wide max.
// Before the fix a visited city scored 0 — the same value every unvisited
// city gets once its choice entry underflows to zero — so a fully-collapsed
// choice row (pheromone evaporated to float32 zero) made the reduction
// crown a tabu city and produce tours with duplicate cities. This test
// zeroes the pheromone matrix to force that state on every step and fails
// on the old code with an invalid-tour error. The GPU ACS kernel scores
// choice·tabu-bit (exploit) or choice·random·tabu-bit (explore) the same
// way and is checked too.
func TestDataParallelSelectionNeverEmitsTabuCity(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	zero := make([]float64, in.N()*in.N())
	for _, vector := range []bool{false, true} {
		for _, tv := range []core.TourVersion{core.TourDataParallel, core.TourDataParallelTexture} {
			e, err := core.NewEngine(cuda.TeslaM2050(), in, aco.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			e.Vector = vector
			if err := e.SetPheromone(zero); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ConstructTours(tv); err != nil {
				t.Fatalf("vector=%v %v: %v", vector, tv, err)
			}
			for k := 0; k < e.Ants(); k++ {
				if err := in.ValidTour(e.Tour(k)); err != nil {
					t.Errorf("vector=%v %v: ant %d emitted a tabu city: %v", vector, tv, k, err)
					break
				}
			}
			e.Free()
		}
	}
	a, err := core.NewACSEngine(cuda.TeslaM2050(), in, aco.DefaultACSParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	if err := a.SetPheromone(zero); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConstructTours(); err != nil {
		t.Fatalf("ACS: %v", err)
	}
	for k := 0; k < a.Ants(); k++ {
		if err := in.ValidTour(a.Tour(k)); err != nil {
			t.Errorf("ACS: ant %d emitted a tabu city: %v", k, err)
			break
		}
	}
}

// TestTaskKernelRouletteSurvivesZeroChoiceRows: the task-parallel kernels'
// roulette scans must stay on feasible cities when choice values collapse
// to zero (sums underflow, r == 0 draws). All four task versions must keep
// producing valid tours with a zeroed pheromone matrix.
func TestTaskKernelRouletteSurvivesZeroChoiceRows(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	zero := make([]float64, in.N()*in.N())
	for _, tv := range []core.TourVersion{core.TourBaseline, core.TourChoiceKernel, core.TourDeviceRNG, core.TourNNList, core.TourNNShared, core.TourNNSharedTexture} {
		e, err := core.NewEngine(cuda.TeslaM2050(), in, aco.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetPheromone(zero); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ConstructTours(tv); err != nil {
			t.Fatalf("%v: %v", tv, err)
		}
		for k := 0; k < e.Ants(); k++ {
			if err := in.ValidTour(e.Tour(k)); err != nil {
				t.Errorf("%v: ant %d: %v", tv, k, err)
				break
			}
		}
		e.Free()
	}
}
