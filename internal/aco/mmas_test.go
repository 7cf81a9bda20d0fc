package aco_test

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

func newMMAS(t *testing.T, name string) *aco.MMAS {
	t.Helper()
	in := tsp.MustLoadBenchmark(name)
	m, err := aco.NewMMASColony(in, aco.DefaultMMASParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMMASDefaults(t *testing.T) {
	p := aco.DefaultMMASParams()
	if p.Rho != 0.02 || p.BestEvery != 25 || p.StagnationReset != 250 {
		t.Errorf("MMAS defaults %+v differ from Stützle & Hoos settings", p)
	}
}

func TestMMASParamsValidate(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	bad := []func(*aco.MMASParams){
		func(p *aco.MMASParams) { p.BestEvery = 0 },
		func(p *aco.MMASParams) { p.StagnationReset = 0 },
		func(p *aco.MMASParams) { p.Rho = 0 },
	}
	for i, mutate := range bad {
		p := aco.DefaultMMASParams()
		mutate(&p)
		if _, err := aco.NewMMASColony(in, p); err == nil {
			t.Errorf("case %d: invalid MMAS params accepted", i)
		}
	}
}

func TestMMASTrailsStartAtTauMax(t *testing.T) {
	m := newMMAS(t, "att48")
	if m.TauMax <= m.TauMin || m.TauMin <= 0 {
		t.Fatalf("bounds τmin=%v τmax=%v", m.TauMin, m.TauMax)
	}
	for i, v := range m.Pher {
		if v != m.TauMax {
			t.Fatalf("trail %d = %v, want τmax %v", i, v, m.TauMax)
		}
	}
}

func TestMMASBoundsHoldAcrossIterations(t *testing.T) {
	m := newMMAS(t, "att48")
	for i := 0; i < 20; i++ {
		m.Iterate(aco.NNListConstruction)
		if !m.BoundsValid() {
			t.Fatalf("iteration %d: trails escaped [τmin, τmax]", i+1)
		}
	}
	if err := m.In.ValidTour(m.BestTour); err != nil {
		t.Fatal(err)
	}
}

func TestMMASTauMinReachedThroughEvaporation(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultMMASParams()
	p.Rho = 0.1 // τmax→τmin takes ~ln(2n)/ρ iterations; keep the test fast
	m, err := aco.NewMMASColony(in, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		m.Iterate(aco.NNListConstruction)
	}
	atMin := 0
	for _, v := range m.Pher {
		if v <= m.TauMin*1.0001 {
			atMin++
		}
	}
	if atMin == 0 {
		t.Error("no trail decayed to τmin after 120 iterations")
	}
}

func TestMMASConverges(t *testing.T) {
	// MMAS explores broadly at first (optimistic τmax trails) and needs
	// ~1/ρ iterations before the pheromone differential bites, then beats
	// the greedy tour.
	m := newMMAS(t, "kroC100")
	m.Iterate(aco.NNListConstruction)
	first := m.BestLen
	for i := 0; i < 250; i++ {
		m.Iterate(aco.NNListConstruction)
	}
	if m.BestLen > first {
		t.Errorf("MMAS best after 250 iterations (%d) worse than first (%d)", m.BestLen, first)
	}
	nn := m.In.TourLength(m.In.NearestNeighbourTour(0))
	if m.BestLen >= nn {
		t.Errorf("MMAS best %d should beat greedy NN %d after 250 iterations", m.BestLen, nn)
	}
}

func TestMMASDeterministic(t *testing.T) {
	a := newMMAS(t, "att48")
	b := newMMAS(t, "att48")
	for i := 0; i < 5; i++ {
		a.Iterate(aco.NNListConstruction)
		b.Iterate(aco.NNListConstruction)
	}
	if a.BestLen != b.BestLen {
		t.Errorf("same-seed MMAS diverged: %d vs %d", a.BestLen, b.BestLen)
	}
}

func TestMMASBoundsTrackBestTour(t *testing.T) {
	m := newMMAS(t, "kroC100")
	for i := 0; i < 10; i++ {
		m.Iterate(aco.NNListConstruction)
	}
	// After any improvement, τmax must equal 1/(ρ·C_best) and τmin must be
	// τmax/(2n).
	want := 1 / (m.P.Rho * float64(m.BestLen))
	if diff := m.TauMax/want - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("τmax = %v, want 1/(ρ·C_best) = %v", m.TauMax, want)
	}
	if wantMin := m.TauMax / (2 * float64(m.N())); m.TauMin != wantMin {
		t.Errorf("τmin = %v, want %v", m.TauMin, wantMin)
	}
}
