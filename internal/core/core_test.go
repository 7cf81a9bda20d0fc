package core_test

import (
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

func newEngine(t *testing.T, dev *cuda.Device, bench string) *core.Engine {
	t.Helper()
	in := tsp.MustLoadBenchmark(bench)
	e, err := core.NewEngine(dev, in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAllTourVersionsProduceValidTours(t *testing.T) {
	for _, dev := range []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()} {
		for _, v := range core.TourVersions {
			e := newEngine(t, dev, "att48")
			stage, err := e.ConstructTours(v)
			if err != nil {
				t.Fatalf("%s %v: %v", dev.Name, v, err)
			}
			if stage.Sampled() {
				t.Fatalf("%s %v: unexpected sampling without a budget", dev.Name, v)
			}
			for k := 0; k < e.Ants(); k++ {
				if err := e.In.ValidTour(e.Tour(k)); err != nil {
					t.Fatalf("%s %v ant %d: %v", dev.Name, v, k, err)
				}
			}
			if stage.Millis() <= 0 {
				t.Errorf("%s %v: non-positive stage time", dev.Name, v)
			}
		}
	}
}

func TestTourPaddingWrapsToStart(t *testing.T) {
	e := newEngine(t, cuda.TeslaC1060(), "att48")
	if _, err := e.ConstructTours(core.TourNNList); err != nil {
		t.Fatal(err)
	}
	// The (n+1)-th entry and the padding must repeat the first city, the
	// paper's divergence-avoiding padding.
	full := e.Tour(3)
	first := full[0]
	n := e.N()
	all := e.Tour(3)[:n]
	_ = all
	// Access the padded row through the exported surface: tours beyond n
	// are not exposed by Tour, so rebuild via lengths check instead: the
	// stored float length must match the integer tour length within FP
	// tolerance.
	want := e.In.TourLength(e.Tour(3))
	got := float64(e.Lengths()[3])
	if math.Abs(got-float64(want)) > float64(want)*1e-4 {
		t.Errorf("stored length %v, recomputed %d", got, want)
	}
	_ = first
}

func TestTourLengthsMatchToursAllVersions(t *testing.T) {
	dev := cuda.TeslaM2050()
	for _, v := range core.TourVersions {
		e := newEngine(t, dev, "kroC100")
		if _, err := e.ConstructTours(v); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for k := 0; k < e.Ants(); k += 7 {
			want := e.In.TourLength(e.Tour(k))
			got := float64(e.Lengths()[k])
			if math.Abs(got-float64(want)) > float64(want)*1e-3 {
				t.Errorf("%v ant %d: device length %v vs host %d", v, k, got, want)
			}
		}
	}
}

func TestConstructionDeterministic(t *testing.T) {
	dev := cuda.TeslaC1060()
	a := newEngine(t, dev, "att48")
	b := newEngine(t, dev, "att48")
	if _, err := a.ConstructTours(core.TourDataParallel); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConstructTours(core.TourDataParallel); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < a.Ants(); k++ {
		ta, tb := a.Tour(k), b.Tour(k)
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("ant %d diverged at step %d", k, i)
			}
		}
	}
}

func TestChoiceKernelMatchesCPUColony(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(cuda.TeslaM2050(), in, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ChoiceKernel(); err != nil {
		t.Fatal(err)
	}
	n := in.N()
	for i := 0; i < n*n; i++ {
		cpu := c.Choice[i]
		gpu := float64(e.ChoiceData()[i])
		if cpu == 0 && gpu == 0 {
			continue
		}
		if math.Abs(cpu-gpu) > math.Abs(cpu)*1e-4+1e-9 {
			t.Fatalf("choice[%d]: cpu %v gpu %v", i, cpu, gpu)
		}
	}
}

// referencePheromone computes the expected pheromone matrix on the host for
// the engine's current tours: evaporation plus symmetric deposit.
func referencePheromone(e *core.Engine, rho float64) []float64 {
	n := e.N()
	ref := make([]float64, n*n)
	for i := range ref {
		ref[i] = float64(e.Pheromone()[i]) * (1 - rho)
	}
	for k := 0; k < e.Ants(); k++ {
		tour := e.Tour(k)
		delta := 1 / float64(e.Lengths()[k])
		for i := 0; i < n; i++ {
			a := int(tour[i])
			b := int(tour[(i+1)%n])
			ref[a*n+b] += delta
			ref[b*n+a] += delta
		}
	}
	return ref
}

func TestAllPheromoneVersionsAgree(t *testing.T) {
	dev := cuda.TeslaM2050()
	for _, v := range core.PherVersions {
		e := newEngine(t, dev, "att48")
		if _, err := e.ConstructTours(core.TourNNList); err != nil {
			t.Fatal(err)
		}
		want := referencePheromone(e, e.P.Rho)
		stage, err := e.UpdatePheromone(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if stage.Millis() <= 0 {
			t.Errorf("%v: non-positive stage time", v)
		}
		n := e.N()
		for i := 0; i < n*n; i++ {
			got := float64(e.Pheromone()[i])
			if math.Abs(got-want[i]) > math.Abs(want[i])*1e-3+1e-7 {
				row, col := i/n, i%n
				t.Fatalf("%v: pheromone[%d,%d] = %v, want %v", v, row, col, got, want[i])
			}
		}
	}
}

func TestPheromoneSymmetricAfterUpdate(t *testing.T) {
	for _, v := range core.PherVersions {
		e := newEngine(t, cuda.TeslaC1060(), "att48")
		if _, err := e.ConstructTours(core.TourNNList); err != nil {
			t.Fatal(err)
		}
		if _, err := e.UpdatePheromone(v); err != nil {
			t.Fatal(err)
		}
		n := e.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := e.Pheromone()[i*n+j], e.Pheromone()[j*n+i]
				if math.Abs(float64(a-b)) > 1e-6 {
					t.Fatalf("%v: asymmetric at (%d,%d): %v vs %v", v, i, j, a, b)
				}
			}
		}
	}
}

func TestScatterGatherSlowerThanAtomic(t *testing.T) {
	// The headline finding of Tables III/IV: avoiding atomics via
	// scatter-to-gather costs orders of magnitude more.
	for _, dev := range []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()} {
		times := map[core.PherVersion]float64{}
		for _, v := range core.PherVersions {
			e := newEngine(t, dev, "kroC100")
			if _, err := e.ConstructTours(core.TourNNList); err != nil {
				t.Fatal(err)
			}
			stage, err := e.UpdatePheromone(v)
			if err != nil {
				t.Fatal(err)
			}
			times[v] = stage.Millis()
		}
		if times[core.PherScatterGather] < 5*times[core.PherAtomicShared] {
			t.Errorf("%s: scatter-to-gather (%v ms) should be >>5x atomic+shared (%v ms)",
				dev.Name, times[core.PherScatterGather], times[core.PherAtomicShared])
		}
		if times[core.PherScatterGatherTiled] >= times[core.PherScatterGather] {
			t.Errorf("%s: tiling (%v ms) should improve plain scatter-to-gather (%v ms)",
				dev.Name, times[core.PherScatterGatherTiled], times[core.PherScatterGather])
		}
		if times[core.PherReduction] >= times[core.PherScatterGatherTiled] {
			t.Errorf("%s: thread reduction (%v ms) should improve tiled scatter (%v ms)",
				dev.Name, times[core.PherReduction], times[core.PherScatterGatherTiled])
		}
	}
}

func TestScatterGatherSlowdownGrowsWithN(t *testing.T) {
	// Table III's bottom row: the slowdown of avoiding atomics grows
	// roughly with n² (2n⁴/θ loads vs ~n atomic ops per ant).
	slowdown := func(bench string) float64 {
		e := newEngine(t, cuda.TeslaC1060(), bench)
		e.SampleBudget = 1 << 24
		if _, err := e.ConstructTours(core.TourNNList); err != nil {
			t.Fatal(err)
		}
		atomic, err := e.UpdatePheromone(core.PherAtomicShared)
		if err != nil {
			t.Fatal(err)
		}
		scatter, err := e.UpdatePheromone(core.PherScatterGather)
		if err != nil {
			t.Fatal(err)
		}
		return scatter.Millis() / atomic.Millis()
	}
	small, big := slowdown("kroC100"), slowdown("a280")
	if big < 2*small {
		t.Errorf("slowdown should grow with n: kroC100 %.1fx vs a280 %.1fx", small, big)
	}
}

func TestTourVersionOrderingSmallInstance(t *testing.T) {
	// Table II shape at att48: baseline is slowest; the choice kernel is a
	// big win; data parallelism is the best version for small instances.
	dev := cuda.TeslaC1060()
	times := map[core.TourVersion]float64{}
	for _, v := range core.TourVersions {
		e := newEngine(t, dev, "att48")
		stage, err := e.ConstructTours(v)
		if err != nil {
			t.Fatal(err)
		}
		times[v] = stage.Millis()
	}
	if times[core.TourBaseline] <= times[core.TourChoiceKernel] {
		t.Errorf("baseline (%v) should be slower than choice kernel (%v)",
			times[core.TourBaseline], times[core.TourChoiceKernel])
	}
	if times[core.TourChoiceKernel] <= times[core.TourDeviceRNG] {
		t.Errorf("library RNG (%v) should be slower than device RNG (%v)",
			times[core.TourChoiceKernel], times[core.TourDeviceRNG])
	}
	if times[core.TourDeviceRNG] <= times[core.TourNNList] {
		t.Errorf("full probabilistic (%v) should be slower than NN list (%v)",
			times[core.TourDeviceRNG], times[core.TourNNList])
	}
	if times[core.TourDataParallel] >= times[core.TourNNSharedTexture] {
		t.Errorf("data parallelism (%v) should beat the best task version (%v) at n=48",
			times[core.TourDataParallel], times[core.TourNNSharedTexture])
	}
}

func TestSampledLaunchTimesCloseToFull(t *testing.T) {
	// Block sampling must not change the simulated time materially.
	dev := cuda.TeslaC1060()
	full := newEngine(t, dev, "a280")
	fs, err := full.ConstructTours(core.TourDataParallel)
	if err != nil {
		t.Fatal(err)
	}
	sampled := newEngine(t, dev, "a280")
	sampled.SampleBudget = 1 << 22
	ss, err := sampled.ConstructTours(core.TourDataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Sampled() {
		t.Fatal("expected the budgeted run to sample")
	}
	rel := math.Abs(fs.Millis()-ss.Millis()) / fs.Millis()
	if rel > 0.05 {
		t.Errorf("sampled stage time %v ms deviates %.1f%% from full %v ms",
			ss.Millis(), rel*100, fs.Millis())
	}
}

func TestGPUColonyIterateImproves(t *testing.T) {
	e := newEngine(t, cuda.TeslaM2050(), "att48")
	var firstBest int64
	for i := 0; i < 5; i++ {
		res, err := e.Iterate(core.TourNNList, core.PherAtomicShared)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstBest = res.BestLen
		}
		if res.Seconds() <= 0 {
			t.Error("non-positive iteration time")
		}
	}
	_, best := e.Best()
	if best > firstBest {
		t.Errorf("best after 5 iterations (%d) worse than first iteration (%d)", best, firstBest)
	}
	if err := e.In.ValidTour(mustBestTour(t, e)); err != nil {
		t.Fatal(err)
	}
	// The colony should land in the same quality ballpark as the CPU AS.
	nn := e.In.TourLength(e.In.NearestNeighbourTour(0))
	if best > nn*2 {
		t.Errorf("GPU AS best %d far worse than greedy NN %d", best, nn)
	}
}

func mustBestTour(t *testing.T, e *core.Engine) []int32 {
	t.Helper()
	tour, _ := e.Best()
	if tour == nil {
		t.Fatal("no best tour recorded")
	}
	return tour
}

func TestIterateRefusesSampling(t *testing.T) {
	e := newEngine(t, cuda.TeslaM2050(), "att48")
	e.SampleBudget = 1000
	if _, err := e.Iterate(core.TourNNList, core.PherAtomicShared); err == nil {
		t.Error("Iterate with a sampling budget must fail")
	}
}

func TestFloatAtomicEmulationShowsInPheromoneStage(t *testing.T) {
	// Figure 5's left end: the C1060 pays the float-atomic emulation tax.
	run := func(dev *cuda.Device) float64 {
		e := newEngine(t, dev, "att48")
		if _, err := e.ConstructTours(core.TourNNList); err != nil {
			t.Fatal(err)
		}
		stage, err := e.UpdatePheromone(core.PherAtomicShared)
		if err != nil {
			t.Fatal(err)
		}
		return stage.Millis()
	}
	if c, m := run(cuda.TeslaC1060()), run(cuda.TeslaM2050()); c <= m {
		t.Errorf("pheromone update on C1060 (%v ms) should be slower than M2050 (%v ms)", c, m)
	}
}

func TestEngineRejectsBadParams(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Rho = 0
	if _, err := core.NewEngine(cuda.TeslaC1060(), in, p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSetPheromone(t *testing.T) {
	e := newEngine(t, cuda.TeslaC1060(), "att48")
	n := e.N()
	p := make([]float64, n*n)
	for i := range p {
		p[i] = float64(i%7) + 1
	}
	if err := e.SetPheromone(p); err != nil {
		t.Fatal(err)
	}
	if got := e.Pheromone()[13]; got != float32(p[13]) {
		t.Errorf("pheromone[13] = %v, want %v", got, p[13])
	}
	if err := e.SetPheromone(p[:5]); err == nil {
		t.Error("wrong-size pheromone accepted")
	}
}
