package core_test

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// algorithmEngine is what the GPU MMAS, EAS and Rank engines share: one
// Iterate step over a tour kernel and the best-so-far readout of the
// embedded Engine (acsSteps adapts ACS).
type algorithmEngine interface {
	Iterate(core.TourVersion) (*core.IterationResult, error)
	Best() ([]int32, int64)
}

// iterateN runs iters iterations of an algorithm engine with tour kernel
// tv and returns its best tour, the tour's length and the summed simulated
// seconds.
func iterateN(e algorithmEngine, tv core.TourVersion, iters int) ([]int32, int64, float64, error) {
	secs := 0.0
	for i := 0; i < iters; i++ {
		res, err := e.Iterate(tv)
		if err != nil {
			return nil, 0, 0, err
		}
		secs += res.Seconds()
	}
	tour, l := e.Best()
	return tour, l, secs, nil
}

func TestEASEngineConvergesAndValid(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	e, err := core.NewEASEngine(cuda.TeslaM2050(), in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tour, l, secs, err := iterateN(e, core.TourNNShared, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidTour(tour); err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Error("no simulated time")
	}
	nn := in.TourLength(in.NearestNeighbourTour(0))
	if float64(l) > 1.1*float64(nn) {
		t.Errorf("EAS engine best %d far from greedy %d", l, nn)
	}
}

func TestRankEngineDepositsOnlyRankedTours(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	r, err := core.NewRankEngine(cuda.TeslaC1060(), in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Iterate(core.TourNNShared)
	if err != nil {
		t.Fatal(err)
	}
	// Update = evaporate + 5 rank deposits + 1 best deposit, all atomic-free.
	if len(res.Update.Kernels) != 7 {
		t.Fatalf("update launched %d kernels, want 7", len(res.Update.Kernels))
	}
	for _, k := range res.Update.Kernels {
		if k.Meter.AtomicOps != 0 {
			t.Errorf("kernel %s used atomics; rank-based update needs none", k.Name)
		}
	}
	// Pheromone must remain symmetric.
	n := r.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := r.Pheromone()[i*n+j], r.Pheromone()[j*n+i]
			if a != b {
				t.Fatalf("asymmetric pheromone at (%d,%d)", i, j)
			}
		}
	}
}

func TestRankEngineValidation(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 4
	if _, err := core.NewRankEngine(cuda.TeslaC1060(), in, p, nil); err == nil {
		t.Error("w > m accepted")
	}
}

func TestRankEngineConverges(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	r, err := core.NewRankEngine(cuda.TeslaM2050(), in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tour, l, _, err := iterateN(r, core.TourDataParallel, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidTour(tour); err != nil {
		t.Fatal(err)
	}
	nn := in.TourLength(in.NearestNeighbourTour(0))
	if float64(l) > 1.1*float64(nn) {
		t.Errorf("ASrank engine best %d far from greedy %d", l, nn)
	}
}

func TestVariantEnginesRefuseSampling(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	e, err := core.NewEASEngine(cuda.TeslaM2050(), in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SampleBudget = 100
	if _, err := e.Iterate(core.TourNNShared); err == nil {
		t.Error("sampled EAS iteration accepted")
	}
	r, err := core.NewRankEngine(cuda.TeslaM2050(), in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SampleBudget = 100
	if _, err := r.Iterate(core.TourNNShared); err == nil {
		t.Error("sampled ASrank iteration accepted")
	}
}
