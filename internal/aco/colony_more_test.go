package aco_test

import (
	"errors"
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// TestConstructorsBuildChoiceOnce: every colony constructor computes the
// n×n choice matrix once, two pows per cell, however its algorithm sets
// the initial trails.
func TestConstructorsBuildChoiceOnce(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	p := aco.DefaultParams()
	as, err1 := aco.New(in, p)
	derived, err2 := aco.NewWithDerived(in, p, in.Derive(p.NN, false))
	acs, err3 := aco.NewACSColony(in, aco.DefaultACSParams(), nil)
	mmas, err4 := aco.NewMMASColony(in, aco.DefaultMMASParams(), nil)
	eas, err5 := aco.NewEASColony(in, p, nil)
	rank, err6 := aco.NewRankColony(in, p, nil)
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*aco.Colony{
		"New": as, "NewWithDerived": derived, "NewACSColony": acs.Colony,
		"NewMMASColony": mmas.Colony, "NewEASColony": eas.Colony, "NewRankColony": rank.Colony,
	} {
		if n := float64(in.N()); c.ChoiceMeter.Pow != 2*n*n {
			t.Errorf("%s: ChoiceMeter.Pow = %v after set-up, want 2n² = %v", name, c.ChoiceMeter.Pow, 2*n*n)
		}
	}
}

func TestChoiceInfoMatchesDefinition(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Alpha = 1.3
	p.Beta = 2.7
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	n := c.N()
	for _, idx := range []int{1, n + 2, 5*n + 7, n*n - 2} {
		i, j := idx/n, idx%n
		if i == j {
			continue
		}
		tau := math.Pow(c.Pher[idx], p.Alpha)
		eta := math.Pow(1.0/(float64(in.Dist(i, j))+0.1), p.Beta)
		want := tau * eta
		if got := c.Choice[idx]; math.Abs(got-want) > want*1e-12 {
			t.Errorf("choice[%d,%d] = %v, want %v", i, j, got, want)
		}
	}
}

func TestHeuristicGuardsZeroDistance(t *testing.T) {
	// Duplicate points give zero distances; η must stay finite.
	in, err := tsp.New("dups", tsp.Euc2D, []tsp.Point{
		{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Choice {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("choice[%d] = %v with zero-distance edge", i, v)
		}
	}
	c.ConstructTours(aco.NNListConstruction)
	for ant := 0; ant < c.Ants(); ant++ {
		tour := c.Tours[ant*c.N() : (ant+1)*c.N()]
		if err := in.ValidTour(tour); err != nil {
			t.Fatalf("ant %d: %v", ant, err)
		}
	}
}

func TestDepositAntsSamplingMatchesScaledMeter(t *testing.T) {
	in := tsp.MustLoadBenchmark("a280")
	c, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c.ConstructTours(aco.NNListConstruction)

	c.ResetMeters()
	c.DepositAnts(28) // 10% sample
	sampled := c.PheromoneMeter
	sampled.Scale(10)

	c.ResetMeters()
	c.Deposit()
	full := c.PheromoneMeter

	if math.Abs(sampled.Ops-full.Ops) > full.Ops*1e-9 {
		t.Errorf("scaled sample ops %v != full %v", sampled.Ops, full.Ops)
	}
	if math.Abs(sampled.Bytes-full.Bytes) > full.Bytes*1e-9 {
		t.Errorf("scaled sample bytes %v != full %v", sampled.Bytes, full.Bytes)
	}
}

func TestIterateAdvancesRandomStreams(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	c.ConstructTours(aco.NNListConstruction)
	first := make([]int32, len(c.Tours))
	copy(first, c.Tours)
	c.ConstructTours(aco.NNListConstruction)
	same := true
	for i := range c.Tours {
		if c.Tours[i] != first[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive construction rounds reused the same random streams")
	}
}

func TestVariantString(t *testing.T) {
	if aco.FullProbabilistic.String() != "full-probabilistic" ||
		aco.NNListConstruction.String() != "nn-list" {
		t.Error("variant names changed")
	}
	if aco.Variant(9).String() == "" {
		t.Error("unknown variant must format")
	}
}

func TestAntCountOverride(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 7
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ants() != 7 {
		t.Errorf("ants = %d, want 7", c.Ants())
	}
	c.ConstructTours(aco.NNListConstruction)
	for ant := 0; ant < 7; ant++ {
		tour := c.Tours[ant*c.N() : (ant+1)*c.N()]
		if err := in.ValidTour(tour); err != nil {
			t.Fatalf("ant %d: %v", ant, err)
		}
	}
}

func TestCPUModelPowAndRNGCosts(t *testing.T) {
	cpu := aco.DefaultCPU()
	base := aco.Meter{Ops: 1000}
	withPow := aco.Meter{Ops: 1000, Pow: 100}
	withRNG := aco.Meter{Ops: 1000, RNG: 100}
	if cpu.Seconds(&withPow) <= cpu.Seconds(&base) {
		t.Error("pow calls must cost time")
	}
	if cpu.Seconds(&withRNG) <= cpu.Seconds(&base) {
		t.Error("rng draws must cost time")
	}
	wantPow := (1000 + 100*cpu.PowCostOps) / cpu.OpsPerSec
	if got := cpu.Seconds(&withPow); math.Abs(got-wantPow) > wantPow*1e-12 {
		t.Errorf("pow cost model: %v, want %v", got, wantPow)
	}
	if cpu.Millis(&base) != cpu.Seconds(&base)*1e3 {
		t.Error("Millis conversion wrong")
	}
}
