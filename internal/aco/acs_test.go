package aco_test

import (
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

func newACS(t *testing.T, name string) *aco.ACS {
	t.Helper()
	in := tsp.MustLoadBenchmark(name)
	a, err := aco.NewACSColony(in, aco.DefaultACSParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestACSDefaults(t *testing.T) {
	p := aco.DefaultACSParams()
	if p.Q0 != 0.9 || p.Xi != 0.1 || p.Rho != 0.1 || p.Ants != 10 {
		t.Errorf("ACS defaults %+v differ from Dorigo & Gambardella settings", p)
	}
}

func TestACSParamsValidate(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	bad := []func(*aco.ACSParams){
		func(p *aco.ACSParams) { p.Q0 = -0.1 },
		func(p *aco.ACSParams) { p.Q0 = 1.1 },
		func(p *aco.ACSParams) { p.Xi = 0 },
		func(p *aco.ACSParams) { p.Xi = 1 },
		func(p *aco.ACSParams) { p.Rho = 0 },
	}
	for i, mutate := range bad {
		p := aco.DefaultACSParams()
		mutate(&p)
		if _, err := aco.NewACSColony(in, p, nil); err == nil {
			t.Errorf("case %d: invalid ACS params accepted", i)
		}
	}
}

func TestACSTau0SmallerThanAS(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	as, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	acs, err := aco.NewACSColony(in, aco.DefaultACSParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if acs.Tau0() >= as.Tau0() {
		t.Errorf("ACS tau0 (%v) should be much smaller than AS tau0 (%v)", acs.Tau0(), as.Tau0())
	}
}

func TestACSProducesValidTours(t *testing.T) {
	a := newACS(t, "att48")
	a.ConstructTours()
	n := a.N()
	for ant := 0; ant < a.Ants(); ant++ {
		tour := a.Tours[ant*n : (ant+1)*n]
		if err := a.In.ValidTour(tour); err != nil {
			t.Fatalf("ant %d: %v", ant, err)
		}
	}
}

func TestACSLocalUpdateDecaysUsedEdges(t *testing.T) {
	a := newACS(t, "att48")
	tau0 := a.Tau0()
	// Inflate the pheromone so the decay direction is visible.
	for i := range a.Pher {
		a.Pher[i] = tau0 * 100
	}
	a.ComputeChoiceInfo()
	a.ConstructTours()
	n := a.N()
	// Every crossed edge must have decayed below the inflated level.
	tour := a.Tours[:n]
	for i := 0; i < n; i++ {
		x, y := int(tour[i]), int(tour[(i+1)%n])
		if a.Pher[x*n+y] >= tau0*100 {
			t.Fatalf("edge (%d,%d) did not decay", x, y)
		}
		if a.Pher[x*n+y] != a.Pher[y*n+x] {
			t.Fatalf("local update asymmetric at (%d,%d)", x, y)
		}
	}
}

func TestACSGlobalUpdateOnlyTouchesBestTour(t *testing.T) {
	a := newACS(t, "att48")
	a.ConstructTours()
	n := a.N()
	before := make([]float64, len(a.Pher))
	copy(before, a.Pher)
	a.GlobalUpdate()

	onBest := make(map[int]bool)
	for i := 0; i < n; i++ {
		x, y := int(a.BestTour[i]), int(a.BestTour[(i+1)%n])
		onBest[x*n+y] = true
		onBest[y*n+x] = true
	}
	changed := 0
	for i := range a.Pher {
		if a.Pher[i] != before[i] {
			changed++
			if !onBest[i] {
				t.Fatalf("global update touched non-best edge %d", i)
			}
		}
	}
	if changed == 0 {
		t.Fatal("global update changed nothing")
	}
}

func TestACSConvergesOnSmallInstance(t *testing.T) {
	a := newACS(t, "kroC100")
	a.ConstructTours()
	first := a.BestLen
	a.GlobalUpdate()
	for i := 0; i < 30; i++ {
		a.Iterate()
	}
	best := a.BestLen
	if best > first {
		t.Errorf("ACS best after 30 iterations (%d) worse than first batch (%d)", best, first)
	}
	// ACS with exploitation should at least approach the greedy NN tour.
	nn := a.In.TourLength(a.In.NearestNeighbourTour(0))
	if float64(best) > 1.2*float64(nn) {
		t.Errorf("ACS best %d far from greedy NN %d", best, nn)
	}
	if err := a.In.ValidTour(a.BestTour); err != nil {
		t.Fatal(err)
	}
}

func TestACSDeterministicPerSeed(t *testing.T) {
	a := newACS(t, "att48")
	b := newACS(t, "att48")
	for i := 0; i < 3; i++ {
		a.Iterate()
		b.Iterate()
	}
	if a.BestLen != b.BestLen {
		t.Errorf("same-seed ACS runs diverged: %d vs %d", a.BestLen, b.BestLen)
	}
	for i := range a.Pher {
		if math.Abs(a.Pher[i]-b.Pher[i]) > 1e-15 {
			t.Fatal("pheromone diverged between identical runs")
		}
	}
}

func TestACSPheromoneStaysPositive(t *testing.T) {
	a := newACS(t, "att48")
	for i := 0; i < 10; i++ {
		a.Iterate()
	}
	for i, v := range a.Pher {
		if v <= 0 {
			t.Fatalf("pheromone[%d] = %v", i, v)
		}
	}
}
