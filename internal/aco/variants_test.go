package aco_test

import (
	"errors"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/metrics"
	"antgpu/internal/tsp"
)

func TestEASElitistBonusOnBestTour(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	e, err := aco.NewEASColony(in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Iterate(aco.NNListConstruction)
	// Best-tour edges must now carry strictly more pheromone than the
	// average edge.
	n := e.N()
	var bestSum float64
	for i := 0; i < n; i++ {
		a, b := int(e.BestTour[i]), int(e.BestTour[(i+1)%n])
		bestSum += e.Pher[a*n+b]
	}
	bestAvg := bestSum / float64(n)
	var sum float64
	for _, v := range e.Pher {
		sum += v
	}
	avg := sum / float64(n*n)
	if bestAvg <= avg*2 {
		t.Errorf("elitist edges (%v) should dominate the average trail (%v)", bestAvg, avg)
	}
}

func TestEASConvergesFasterThanAS(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	as, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, asBest := runIterations(as, aco.NNListConstruction, 15)

	eas, err := aco.NewEASColony(in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		eas.Iterate(aco.NNListConstruction)
	}
	easBest := eas.BestLen
	if err := in.ValidTour(eas.BestTour); err != nil {
		t.Fatal(err)
	}
	// The elitist bias typically wins early; allow a small band either way
	// but catch gross regressions.
	if float64(easBest) > 1.1*float64(asBest) {
		t.Errorf("EAS (%d) much worse than AS (%d) after 15 iterations", easBest, asBest)
	}
}

func TestRankColonyValidation(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 4
	if _, err := aco.NewRankColony(in, p, nil); !errors.Is(err, aco.ErrInvalidParams) {
		t.Errorf("w > m: %v, want aco.ErrInvalidParams", err)
	}
	if _, err := aco.NewRankColony(in, aco.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankASOnlyTopAntsDeposit(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	r, err := aco.NewRankColony(in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.ConstructTours(aco.NNListConstruction)
	before := make([]float64, len(r.Pher))
	copy(before, r.Pher)
	r.UpdatePheromone()

	// Edges not on any of the 5 ranked tours or the best tour must only
	// have evaporated.
	n := r.N()
	onDeposit := map[int]bool{}
	mark := func(tour []int32) {
		for i := 0; i < n; i++ {
			a, b := int(tour[i]), int(tour[(i+1)%n])
			onDeposit[a*n+b] = true
			onDeposit[b*n+a] = true
		}
	}
	// Recompute the ranking the same way the update does.
	type ranked struct {
		ant int
		l   int64
	}
	rs := make([]ranked, r.Ants())
	for k := range rs {
		rs[k] = ranked{k, r.Lengths[k]}
	}
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			if rs[j].l < rs[i].l {
				rs[i], rs[j] = rs[j], rs[i]
			}
		}
	}
	for rank := 0; rank < 5; rank++ {
		mark(r.Tours[rs[rank].ant*n : (rs[rank].ant+1)*n])
	}
	mark(r.BestTour)

	rho := r.P.Rho
	for idx, v := range r.Pher {
		if onDeposit[idx] {
			continue
		}
		want := before[idx] * (1 - rho)
		if diff := v - want; diff > want*1e-9 || diff < -want*1e-9 {
			t.Fatalf("non-ranked edge %d changed beyond evaporation: %v -> %v", idx, before[idx], v)
		}
	}
}

func TestRankASConverges(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	r, err := aco.NewRankColony(in, aco.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Iterate(aco.NNListConstruction)
	}
	best := r.BestLen
	if err := in.ValidTour(r.BestTour); err != nil {
		t.Fatal(err)
	}
	nn := in.TourLength(in.NearestNeighbourTour(0))
	if float64(best) > 1.1*float64(nn) {
		t.Errorf("ASrank best %d far from greedy %d", best, nn)
	}
}

func TestBranchingFactorDecreasesWithConvergence(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	c, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Uniform trails: every edge clears any λ-cut, so the factor is n-1.
	_, start := metrics.PheromoneStats64(c.Pher, c.N())
	if start != float64(c.N()-1) {
		t.Fatalf("uniform branching factor = %v, want %d", start, c.N()-1)
	}
	runIterations(c, aco.NNListConstruction, 15)
	_, after := metrics.PheromoneStats64(c.Pher, c.N())
	if after >= start/2 {
		t.Errorf("branching factor should collapse as trails concentrate: %v -> %v", start, after)
	}
	if after < 1 {
		t.Errorf("branching factor %v below 1 is impossible", after)
	}
}
