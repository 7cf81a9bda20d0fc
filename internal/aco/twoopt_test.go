package aco_test

import (
	"testing"
	"testing/quick"

	"antgpu/internal/aco"
	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

func randomTour(n int, seed uint64) []int32 {
	g := rng.Seed(seed, 0x2097)
	tour := make([]int32, n)
	for i := range tour {
		tour[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		tour[i], tour[j] = tour[j], tour[i]
	}
	return tour
}

func TestTwoOptImprovesRandomTour(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	nnList := in.NNList(20)
	tour := randomTour(in.N(), 1)
	before := in.TourLength(tour)
	after := aco.TwoOpt(in, tour, nnList, 20, nil)
	if err := in.ValidTour(tour); err != nil {
		t.Fatalf("2-opt broke the tour: %v", err)
	}
	if after >= before {
		t.Errorf("2-opt did not improve: %d -> %d", before, after)
	}
	if got := in.TourLength(tour); got != after {
		t.Errorf("returned length %d, recomputed %d", after, got)
	}
	// A random tour is far from optimal; 2-opt should cut it hugely.
	if float64(after) > 0.6*float64(before) {
		t.Errorf("2-opt gain too small: %d -> %d", before, after)
	}
}

func TestTwoOptIdempotentAtLocalOptimum(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	nnList := in.NNList(20)
	tour := randomTour(in.N(), 7)
	first := aco.TwoOpt(in, tour, nnList, 20, nil)
	second := aco.TwoOpt(in, tour, nnList, 20, nil)
	if second != first {
		t.Errorf("second 2-opt pass changed a local optimum: %d -> %d", first, second)
	}
}

func TestTwoOptBeatsGreedyFromGreedyStart(t *testing.T) {
	in := tsp.MustLoadBenchmark("a280")
	nnList := in.NNList(20)
	tour := in.NearestNeighbourTour(0)
	greedy := in.TourLength(tour)
	after := aco.TwoOpt(in, tour, nnList, 20, nil)
	if after >= greedy {
		t.Errorf("2-opt on greedy tour: %d -> %d", greedy, after)
	}
	if err := in.ValidTour(tour); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: 2-opt never lengthens a tour and always preserves validity.
func TestTwoOptNeverWorsensProperty(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	nnList := in.NNList(15)
	f := func(seed uint64) bool {
		tour := randomTour(in.N(), seed)
		before := in.TourLength(tour)
		after := aco.TwoOpt(in, tour, nnList, 15, nil)
		return after <= before && in.ValidTour(tour) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTwoOptMetersCharged(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	nnList := in.NNList(15)
	tour := randomTour(in.N(), 3)
	var m aco.Meter
	aco.TwoOpt(in, tour, nnList, 15, &m)
	if m.Ops == 0 || m.Bytes == 0 {
		t.Errorf("2-opt meters empty: %+v", m)
	}
}

func TestColonyLocalSearchImprovesAnts(t *testing.T) {
	c := newColony(t, "kroC100", aco.DefaultParams())
	c.ConstructTours(aco.NNListConstruction)
	n := c.N()
	before := make([]int64, c.Ants())
	copy(before, c.Lengths)
	c.LocalSearchTours(c.Ants())
	improvedAny := false
	for ant := 0; ant < c.Ants(); ant++ {
		tour := c.Tours[ant*n : (ant+1)*n]
		if err := c.In.ValidTour(tour); err != nil {
			t.Fatalf("ant %d: %v", ant, err)
		}
		if c.Lengths[ant] > before[ant] {
			t.Fatalf("ant %d worsened: %d -> %d", ant, before[ant], c.Lengths[ant])
		}
		if c.Lengths[ant] < before[ant] {
			improvedAny = true
		}
		if got := c.In.TourLength(tour); got != c.Lengths[ant] {
			t.Fatalf("ant %d: recorded %d, actual %d", ant, c.Lengths[ant], got)
		}
	}
	if !improvedAny {
		t.Error("local search improved no ant")
	}
	if err := c.In.ValidTour(c.BestTour); err != nil {
		t.Fatal(err)
	}
}

func TestASWithLocalSearchBeatsPlainAS(t *testing.T) {
	plain := newColony(t, "kroC100", aco.DefaultParams())
	runIterations(plain, aco.NNListConstruction, 10)

	ls := newColony(t, "kroC100", aco.DefaultParams())
	for i := 0; i < 10; i++ {
		ls.ConstructTours(aco.NNListConstruction)
		ls.LocalSearchTours(ls.Ants())
		ls.UpdatePheromone()
	}
	if ls.BestLen >= plain.BestLen {
		t.Errorf("AS+2opt (%d) should beat plain AS (%d)", ls.BestLen, plain.BestLen)
	}
}
