package core_test

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

func newMMASEngine(t *testing.T, dev *cuda.Device, bench string) *core.MMASEngine {
	t.Helper()
	in := tsp.MustLoadBenchmark(bench)
	m, err := core.NewMMASEngine(dev, in, aco.DefaultMMASParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMMASEngineTrailsStartAtTauMax(t *testing.T) {
	m := newMMASEngine(t, cuda.TeslaM2050(), "att48")
	if m.TauMax <= m.TauMin || m.TauMin <= 0 {
		t.Fatalf("bounds τmin=%v τmax=%v", m.TauMin, m.TauMax)
	}
	for i, v := range m.Pheromone() {
		if v != float32(m.TauMax) {
			t.Fatalf("trail %d = %v, want τmax", i, v)
		}
	}
}

func TestMMASEngineBoundsHoldAcrossIterations(t *testing.T) {
	for _, dev := range []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()} {
		m := newMMASEngine(t, dev, "att48")
		for i := 0; i < 10; i++ {
			res, err := m.Iterate(core.TourNNShared)
			if err != nil {
				t.Fatalf("%s: %v", dev.Name, err)
			}
			if !m.BoundsValid() {
				t.Fatalf("%s iteration %d: trails escaped [τmin, τmax]", dev.Name, i+1)
			}
			if res.Seconds() <= 0 {
				t.Errorf("%s: non-positive iteration time", dev.Name)
			}
		}
		tour, _ := m.Best()
		if err := m.In.ValidTour(tour); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMMASEngineNoAtomicsInUpdate(t *testing.T) {
	// The MMAS pheromone stage has a single depositing ant: no atomics.
	m := newMMASEngine(t, cuda.TeslaC1060(), "att48")
	res, err := m.Iterate(core.TourNNShared)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Update.Kernels {
		if k.Meter.AtomicOps != 0 {
			t.Errorf("kernel %s used %d atomics; MMAS update needs none", k.Name, k.Meter.AtomicOps)
		}
	}
}

func TestMMASEngineDeterministicAndConverging(t *testing.T) {
	run := func() (int64, float64) {
		m := newMMASEngine(t, cuda.TeslaM2050(), "kroC100")
		_, l, secs, err := iterateN(m, core.TourDataParallel, 30)
		if err != nil {
			t.Fatal(err)
		}
		return l, secs
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Errorf("MMAS engine runs diverged: (%d, %v) vs (%d, %v)", l1, s1, l2, s2)
	}
	// Early iterations already get within striking distance of greedy.
	in := tsp.MustLoadBenchmark("kroC100")
	nn := in.TourLength(in.NearestNeighbourTour(0))
	if float64(l1) > 1.5*float64(nn) {
		t.Errorf("MMAS engine best %d far from greedy %d", l1, nn)
	}
}

func TestMMASEngineMatchesCPUBounds(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	gpu, err := core.NewMMASEngine(cuda.TeslaM2050(), in, aco.DefaultMMASParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := aco.NewMMASColony(in, aco.DefaultMMASParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.TauMax != cpu.TauMax || gpu.TauMin != cpu.TauMin {
		t.Errorf("initial bounds differ: GPU (%v,%v) vs CPU (%v,%v)",
			gpu.TauMin, gpu.TauMax, cpu.TauMin, cpu.TauMax)
	}
}

func TestMMASEngineRefusesSampling(t *testing.T) {
	m := newMMASEngine(t, cuda.TeslaM2050(), "att48")
	m.SampleBudget = 1000
	if _, err := m.Iterate(core.TourNNShared); err == nil {
		t.Error("sampled MMAS iteration accepted")
	}
}
