package core_test

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

func newACSEngine(t *testing.T, dev *cuda.Device, bench string) *core.ACSEngine {
	t.Helper()
	in := tsp.MustLoadBenchmark(bench)
	a, err := core.NewACSEngine(dev, in, aco.DefaultACSParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// acsSteps adapts the GPU ACS engine, whose construction is one kernel of
// its own, to iterateN: it ignores the tour kernel.
type acsSteps struct{ *core.ACSEngine }

func (a acsSteps) Iterate(core.TourVersion) (*core.IterationResult, error) {
	return a.ACSEngine.Iterate()
}

func TestACSEngineValidToursBothDevices(t *testing.T) {
	for _, dev := range []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()} {
		a := newACSEngine(t, dev, "att48")
		stage, err := a.ConstructTours()
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if stage.Millis() <= 0 {
			t.Errorf("%s: non-positive stage time", dev.Name)
		}
		for k := 0; k < a.Ants(); k++ {
			if err := a.In.ValidTour(a.Tour(k)); err != nil {
				t.Fatalf("%s ant %d: %v", dev.Name, k, err)
			}
		}
	}
}

func TestACSEngineUsesTenAntsByDefault(t *testing.T) {
	a := newACSEngine(t, cuda.TeslaM2050(), "kroC100")
	if a.Ants() != 10 {
		t.Errorf("ACS ant count = %d, want 10", a.Ants())
	}
}

func TestACSEngineLocalUpdateDecaysPheromone(t *testing.T) {
	a := newACSEngine(t, cuda.TeslaM2050(), "att48")
	// Inflate the device pheromone so the decay is visible.
	n := a.N()
	p := make([]float64, n*n)
	for i := range p {
		p[i] = a.Tau0() * 100
	}
	if err := a.SetPheromone(p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConstructTours(); err != nil {
		t.Fatal(err)
	}
	tour := a.Tour(0)
	for i := 0; i < n; i++ {
		x, y := int(tour[i]), int(tour[(i+1)%n])
		if float64(a.Pheromone()[x*n+y]) >= a.Tau0()*100 {
			t.Fatalf("edge (%d,%d) did not decay", x, y)
		}
	}
}

func TestACSEngineGlobalUpdateRequiresBest(t *testing.T) {
	a := newACSEngine(t, cuda.TeslaM2050(), "att48")
	if _, err := a.GlobalUpdate(); err == nil {
		t.Error("global update without a best tour accepted")
	}
}

func TestACSEngineRunConvergesAndIsDeterministic(t *testing.T) {
	run := func() (int64, float64) {
		a := newACSEngine(t, cuda.TeslaM2050(), "kroC100")
		tour, l, secs, err := iterateN(acsSteps{a}, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.In.ValidTour(tour); err != nil {
			t.Fatal(err)
		}
		return l, secs
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Errorf("ACS engine runs diverged: (%d, %v) vs (%d, %v)", l1, s1, l2, s2)
	}
	// Quality: should beat or approach the greedy NN tour.
	in := tsp.MustLoadBenchmark("kroC100")
	nn := in.TourLength(in.NearestNeighbourTour(0))
	if float64(l1) > 1.2*float64(nn) {
		t.Errorf("ACS engine best %d far from greedy NN %d", l1, nn)
	}
}

func TestACSEngineRefusesSampling(t *testing.T) {
	a := newACSEngine(t, cuda.TeslaM2050(), "att48")
	a.SampleBudget = 1000
	if _, err := a.Iterate(); err == nil {
		t.Error("ACS Iterate with a sampling budget must fail")
	}
}

func TestACSEngineMatchesCPUQuality(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	cpu, err := aco.NewACSColony(in, aco.DefaultACSParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		cpu.Iterate()
	}
	cpuBest := cpu.BestLen

	gpu := newACSEngine(t, cuda.TeslaM2050(), "att48")
	_, gpuBest, _, err := iterateN(acsSteps{gpu}, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cpuBest, gpuBest
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.3*float64(lo) {
		t.Errorf("ACS backends diverge in quality: CPU %d vs GPU %d", cpuBest, gpuBest)
	}
}
