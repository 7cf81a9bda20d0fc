package aco_test

import (
	"math"
	"testing"
	"testing/quick"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

func newColony(t *testing.T, name string, p aco.Params) *aco.Colony {
	t.Helper()
	in := tsp.MustLoadBenchmark(name)
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runIterations steps the colony through iters Ant System iterations with
// rule v and returns its best-so-far tour and length.
func runIterations(c *aco.Colony, v aco.Variant, iters int) ([]int32, int64) {
	for i := 0; i < iters; i++ {
		c.Iterate(v)
	}
	return c.BestTour, c.BestLen
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := aco.DefaultParams()
	if p.Alpha != 1 || p.Beta != 2 || p.Rho != 0.5 || p.NN != 30 {
		t.Errorf("defaults %+v differ from Dorigo & Stützle settings", p)
	}
	if p.AntCount(100) != 100 {
		t.Errorf("m should default to n, got %d", p.AntCount(100))
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []aco.Params{
		{Alpha: -1, Beta: 2, Rho: 0.5, NN: 30},
		{Alpha: 1, Beta: 2, Rho: 0, NN: 30},
		{Alpha: 1, Beta: 2, Rho: 1.5, NN: 30},
		{Alpha: 1, Beta: 2, Rho: 0.5, NN: 0},
		{Alpha: 1, Beta: 2, Rho: 0.5, NN: 30, Ants: -1},
	}
	for i, p := range bad {
		if err := p.Validate(100); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	good := aco.DefaultParams()
	if err := good.Validate(100); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestColonyInitialisation(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	if c.Ants() != 48 {
		t.Errorf("m = %d, want 48", c.Ants())
	}
	if c.Tau0() <= 0 {
		t.Errorf("tau0 = %v", c.Tau0())
	}
	for _, v := range c.Pher {
		if v != c.Tau0() {
			t.Fatal("pheromone not initialised to tau0")
		}
	}
	// Choice diagonal must be zero; off-diagonal positive.
	n := c.N()
	for i := 0; i < n; i++ {
		if c.Choice[i*n+i] != 0 {
			t.Fatalf("choice diagonal %d nonzero", i)
		}
		if c.Choice[i*n+(i+1)%n] <= 0 {
			t.Fatalf("choice off-diagonal not positive at %d", i)
		}
	}
}

func TestConstructionProducesValidTours(t *testing.T) {
	for _, v := range []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction} {
		c := newColony(t, "att48", aco.DefaultParams())
		c.ConstructTours(v)
		n := c.N()
		for ant := 0; ant < c.Ants(); ant++ {
			tour := c.Tours[ant*n : (ant+1)*n]
			if err := c.In.ValidTour(tour); err != nil {
				t.Fatalf("%v ant %d: %v", v, ant, err)
			}
			if got := c.In.TourLength(tour); got != c.Lengths[ant] {
				t.Fatalf("%v ant %d: recorded length %d, recomputed %d", v, ant, c.Lengths[ant], got)
			}
		}
	}
}

func TestConstructionDeterministicForSeed(t *testing.T) {
	a := newColony(t, "kroC100", aco.DefaultParams())
	b := newColony(t, "kroC100", aco.DefaultParams())
	a.ConstructTours(aco.NNListConstruction)
	b.ConstructTours(aco.NNListConstruction)
	for i := range a.Tours {
		if a.Tours[i] != b.Tours[i] {
			t.Fatal("same-seed colonies diverged")
		}
	}
	p := aco.DefaultParams()
	p.Seed = 2
	cc := newColony(t, "kroC100", p)
	cc.ConstructTours(aco.NNListConstruction)
	same := true
	for i := range a.Tours {
		if a.Tours[i] != cc.Tours[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tours")
	}
}

func TestEvaporation(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	before := c.Pher[5]
	c.Evaporate()
	if got, want := c.Pher[5], before*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("after evaporation pher = %v, want %v", got, want)
	}
}

func TestDepositSymmetricAndPositive(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	c.ConstructTours(aco.NNListConstruction)
	c.Evaporate()
	c.Deposit()
	n := c.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.Pher[i*n+j] != c.Pher[j*n+i] {
				t.Fatalf("pheromone asymmetric at (%d,%d)", i, j)
			}
			if c.Pher[i*n+j] <= 0 {
				t.Fatalf("pheromone non-positive at (%d,%d)", i, j)
			}
		}
	}
}

func TestDepositAddsExpectedTotal(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	c.ConstructTours(aco.NNListConstruction)
	sumBefore := 0.0
	for _, v := range c.Pher {
		sumBefore += v
	}
	c.Deposit()
	sumAfter := 0.0
	for _, v := range c.Pher {
		sumAfter += v
	}
	// Each ant adds n edges * delta = n/C^k, symmetric so x2.
	want := 0.0
	for ant := 0; ant < c.Ants(); ant++ {
		want += 2 * float64(c.N()) / float64(c.Lengths[ant])
	}
	if got := sumAfter - sumBefore; math.Abs(got-want) > want*1e-6 {
		t.Errorf("deposit total = %v, want %v", got, want)
	}
}

func TestIterationImprovesOverRandom(t *testing.T) {
	c := newColony(t, "kroC100", aco.DefaultParams())
	c.ConstructTours(aco.FullProbabilistic)
	first := c.BestLen
	c.UpdatePheromone()
	_, best := runIterations(c, aco.NNListConstruction, 10)
	if best > first {
		t.Errorf("best after 10 iterations (%d) worse than first batch (%d)", best, first)
	}
	// Sanity: should be within a reasonable factor of the greedy NN tour.
	nn := c.In.TourLength(c.In.NearestNeighbourTour(0))
	if best > nn*2 {
		t.Errorf("AS best %d much worse than greedy NN %d", best, nn)
	}
}

func TestBestTourAlwaysValid(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	runIterations(c, aco.NNListConstruction, 5)
	if err := c.In.ValidTour(c.BestTour); err != nil {
		t.Fatalf("best tour invalid: %v", err)
	}
	if got := c.In.TourLength(c.BestTour); got != c.BestLen {
		t.Errorf("best length %d != recomputed %d", c.BestLen, got)
	}
}

func TestMetersAccumulateAndReset(t *testing.T) {
	c := newColony(t, "att48", aco.DefaultParams())
	c.ResetMeters()
	c.ConstructTours(aco.NNListConstruction)
	if c.ConstructMeter.Ops == 0 || c.ConstructMeter.RNG == 0 {
		t.Error("construction meter empty")
	}
	c.UpdatePheromone()
	if c.PheromoneMeter.Ops == 0 {
		t.Error("pheromone meter empty")
	}
	if c.ChoiceMeter.Pow == 0 {
		t.Error("choice meter should count pow calls")
	}
	c.ResetMeters()
	if c.ConstructMeter.Ops != 0 || c.PheromoneMeter.Ops != 0 || c.ChoiceMeter.Pow != 0 {
		t.Error("ResetMeters did not zero meters")
	}
}

func TestFullProbabilisticCostsMoreThanNN(t *testing.T) {
	cpu := aco.DefaultCPU()
	cFull := newColony(t, "a280", aco.DefaultParams())
	cFull.ResetMeters()
	cFull.ConstructTours(aco.FullProbabilistic)
	full := cpu.Seconds(&cFull.ConstructMeter)

	cNN := newColony(t, "a280", aco.DefaultParams())
	cNN.ResetMeters()
	cNN.ConstructTours(aco.NNListConstruction)
	nn := cpu.Seconds(&cNN.ConstructMeter)

	if full <= nn {
		t.Errorf("full probabilistic (%v s) should cost more than NN list (%v s)", full, nn)
	}
}

func TestConstructAntsSampling(t *testing.T) {
	c := newColony(t, "a280", aco.DefaultParams())
	c.ResetMeters()
	c.ConstructAnts(aco.NNListConstruction, 10)
	ten := c.ConstructMeter
	if ten.Ops == 0 {
		t.Fatal("no ops metered")
	}
	// Roughly 28x the work for all 280 ants (stochastic per-ant variation).
	c.ResetMeters()
	c.ConstructTours(aco.NNListConstruction)
	all := c.ConstructMeter
	ratio := all.Ops / ten.Ops
	if ratio < 20 || ratio > 40 {
		t.Errorf("ops ratio all/10 = %v, expected ~28", ratio)
	}
}

func TestNNFallbacksOccur(t *testing.T) {
	c := newColony(t, "a280", aco.DefaultParams())
	c.ResetMeters()
	c.ConstructTours(aco.NNListConstruction)
	if c.ConstructMeter.Fallbacks == 0 {
		t.Error("NN construction on a280 should hit fall-back-to-best events")
	}
	// Fallbacks are bounded by total steps.
	if c.ConstructMeter.Fallbacks > int64(c.Ants()*c.N()) {
		t.Error("more fallbacks than construction steps")
	}
}

func TestCPUModelMonotone(t *testing.T) {
	cpu := aco.DefaultCPU()
	small := aco.Meter{Ops: 1000}
	big := aco.Meter{Ops: 1e6, Pow: 1000, RNG: 1000}
	if cpu.Seconds(&small) >= cpu.Seconds(&big) {
		t.Error("CPU model not monotone in work")
	}
	memBound := aco.Meter{Ops: 10, Bytes: 1e9}
	if cpu.Seconds(&memBound) < 1e9/cpu.BandwidthPS {
		t.Error("CPU model ignores the bandwidth bound")
	}
}

func TestMeterScaleProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		m := aco.Meter{Ops: float64(a), Pow: float64(b), RNG: 3, Bytes: 7, Fallbacks: int64(a % 10)}
		orig := m
		m.Scale(2)
		return m.Ops == 2*orig.Ops && m.Pow == 2*orig.Pow && m.RNG == 2*orig.RNG &&
			m.Bytes == 2*orig.Bytes && m.Fallbacks == 2*orig.Fallbacks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// PROPERTY: pheromone stays strictly positive and symmetric across many
// iterations with varying seeds.
func TestPheromoneInvariantsProperty(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	f := func(seed uint64) bool {
		p := aco.DefaultParams()
		p.Seed = seed
		c, err := aco.New(in, p)
		if err != nil {
			return false
		}
		runIterations(c, aco.NNListConstruction, 3)
		n := c.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if c.Pher[i*n+j] != c.Pher[j*n+i] || c.Pher[i*n+j] <= 0 {
					return false
				}
			}
		}
		return c.In.ValidTour(c.BestTour) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
