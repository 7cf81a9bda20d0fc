package aco_test

import (
	"fmt"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

func newMMAS(t *testing.T, name string) *aco.MMAS {
	t.Helper()
	in := tsp.MustLoadBenchmark(name)
	m, err := aco.NewMMASColony(in, aco.DefaultMMASParams(), nil)
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
		if _, err := aco.NewMMASColony(in, p, nil); err == nil {
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
	m, err := aco.NewMMASColony(in, p, nil)
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

// TestMMASSchedule steps the schedule on its own through hand-written best
// lengths: the limits follow C^nn until the first iteration and then each
// new best, the best-so-far tour deposits every BestEvery-th iteration,
// and the trails reset after StagnationReset stagnant iterations in a row,
// which restarts the count.
func TestMMASSchedule(t *testing.T) {
	type step struct {
		bestSoFar      int64
		useBest, reset bool
		boundsFrom     int64 // the length [τmin, τmax] follow after the step
	}
	const n, cnn = 10, 100
	cases := []struct {
		name                       string
		bestEvery, stagnationReset int
		steps                      []step
	}{
		{"every-2nd/reset-after-3", 2, 3, []step{
			{80, false, false, 80}, // the first iteration always improves
			{80, true, false, 80},
			{80, false, false, 80},
			{80, true, true, 80}, // third stagnant iteration
			{80, false, false, 80},
			{70, true, false, 70}, // a new best restarts the count
			{70, false, false, 70},
			{70, true, false, 70},
			{70, false, true, 70},
		}},
		{"every-iteration/reset-each-stagnant", 1, 1, []step{
			{90, true, false, 90},
			{90, true, true, 90},
			{90, true, true, 90},
			{85, true, false, 85},
		}},
		{"defaults", 25, 250, []step{
			{120, false, false, 120}, // worse than C^nn, still the first best
			{110, false, false, 110},
			{110, false, false, 110},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := aco.DefaultMMASParams()
			p.BestEvery, p.StagnationReset = c.bestEvery, c.stagnationReset
			s := aco.NewMMASSchedule(p, n, cnn)
			bounds := func(label string, from int64) {
				wantMax := 1 / (p.Rho * float64(from))
				if s.TauMax != wantMax || s.TauMin != wantMax/(2*n) {
					t.Fatalf("%s: [τmin, τmax] = [%v, %v], want [%v, %v] from length %d",
						label, s.TauMin, s.TauMax, wantMax/(2*n), wantMax, from)
				}
			}
			bounds("start", cnn)
			for i, st := range c.steps {
				useBest, reset := s.Next(st.bestSoFar)
				if useBest != st.useBest || reset != st.reset {
					t.Fatalf("iteration %d (best %d): useBest %v reset %v, want %v %v",
						i+1, st.bestSoFar, useBest, reset, st.useBest, st.reset)
				}
				bounds(fmt.Sprintf("iteration %d", i+1), st.boundsFrom)
			}
		})
	}
}
