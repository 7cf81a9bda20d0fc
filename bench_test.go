// Benchmarks regenerating the paper's tables and figures (one Benchmark
// per table/figure, reporting the key simulated milliseconds as custom
// metrics) plus wall-clock micro-benchmarks of the simulator itself.
//
// The table benches default to instances up to pcb442 so `go test -bench=.`
// finishes in minutes; set ANTGPU_BENCH_MAXN=3000 for the full sweep
// (cmd/acobench is the more convenient way to regenerate full tables).
package antgpu_test

import (
	"os"
	"strconv"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/bench"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

func benchMaxN() int {
	if s := os.Getenv("ANTGPU_BENCH_MAXN"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return 450
}

func benchConfig() bench.Config {
	return bench.Config{MaxN: benchMaxN(), SampleBudget: 16 << 20}
}

// cell returns the value at (rowName, last instance) of a table.
func cell(t *bench.Table, row string) float64 {
	for _, r := range t.Rows {
		if r.Name == row && len(r.Values) > 0 {
			return r.Values[len(r.Values)-1]
		}
	}
	return 0
}

// BenchmarkTable2 regenerates Table II (tour construction, Tesla C1060).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.TableII(cuda.TeslaC1060(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "1. Baseline Version"), "simms/v1")
			b.ReportMetric(cell(t, "8. Data Parallelism + Texture Memory"), "simms/v8")
			b.ReportMetric(cell(t, "Total speed-up attained"), "speedup/total")
		}
	}
}

// BenchmarkTable3 regenerates Table III (pheromone update, Tesla C1060).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.TablePheromone(cuda.TeslaC1060(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "1. Atomic Ins. + Shared Memory"), "simms/atomic")
			b.ReportMetric(cell(t, "5. Scatter to Gather"), "simms/scatter")
			b.ReportMetric(cell(t, "Total slow-down incurred"), "slowdown/total")
		}
	}
}

// BenchmarkTable4 regenerates Table IV (pheromone update, Tesla M2050).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.TablePheromone(cuda.TeslaM2050(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "1. Atomic Ins. + Shared Memory"), "simms/atomic")
			b.ReportMetric(cell(t, "Total slow-down incurred"), "slowdown/total")
		}
	}
}

var bothDevices = []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()}

// BenchmarkFigure4a regenerates Figure 4(a) (NN-list construction
// speed-up on both devices).
func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure4a(bothDevices, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "Speed-up Tesla C1060"), "speedup/c1060")
			b.ReportMetric(cell(t, "Speed-up Tesla M2050"), "speedup/m2050")
		}
	}
}

// BenchmarkFigure4b regenerates Figure 4(b) (fully probabilistic
// construction speed-up on both devices).
func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure4b(bothDevices, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "Speed-up Tesla C1060"), "speedup/c1060")
			b.ReportMetric(cell(t, "Speed-up Tesla M2050"), "speedup/m2050")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (pheromone update speed-up on
// both devices).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure5(bothDevices, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "Speed-up Tesla C1060"), "speedup/c1060")
			b.ReportMetric(cell(t, "Speed-up Tesla M2050"), "speedup/m2050")
		}
	}
}

// --- micro-benchmarks: wall-clock cost of the simulator itself -----------

// BenchmarkTourKernel measures the host wall-clock cost of simulating one
// tour-construction stage per version on a mid-size instance.
func BenchmarkTourKernel(b *testing.B) {
	in := tsp.MustLoadBenchmark("kroC100")
	for _, v := range core.TourVersions {
		b.Run(v.String(), func(b *testing.B) {
			e, err := core.NewEngine(cuda.TeslaC1060(), in, aco.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sim float64
			for i := 0; i < b.N; i++ {
				stage, err := e.ConstructTours(v)
				if err != nil {
					b.Fatal(err)
				}
				sim = stage.Millis()
			}
			b.ReportMetric(sim, "simms")
		})
	}
}

// BenchmarkACSKernel measures the host wall-clock cost of simulating one
// GPU ACS tour-construction stage (the choice kernel, then one block per ant
// on the scalar per-lane path) on the same instance with ACS's 10 ants.
func BenchmarkACSKernel(b *testing.B) {
	in := tsp.MustLoadBenchmark("kroC100")
	a, err := core.NewACSEngine(cuda.TeslaC1060(), in, aco.DefaultACSParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		stage, err := a.ConstructTours()
		if err != nil {
			b.Fatal(err)
		}
		sim = stage.Millis()
	}
	b.ReportMetric(sim, "simms")
}

// BenchmarkPheromoneKernel measures one pheromone-update stage per version.
func BenchmarkPheromoneKernel(b *testing.B) {
	in := tsp.MustLoadBenchmark("kroC100")
	for _, v := range core.PherVersions {
		b.Run(v.String(), func(b *testing.B) {
			e, err := core.NewEngine(cuda.TeslaC1060(), in, aco.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.ConstructTours(core.TourNNList); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sim float64
			for i := 0; i < b.N; i++ {
				stage, err := e.UpdatePheromone(v)
				if err != nil {
					b.Fatal(err)
				}
				sim = stage.Millis()
			}
			b.ReportMetric(sim, "simms")
		})
	}
}

// BenchmarkCPUColonyIteration measures one full sequential AS iteration.
func BenchmarkCPUColonyIteration(b *testing.B) {
	for _, variant := range []aco.Variant{aco.NNListConstruction, aco.FullProbabilistic} {
		b.Run(variant.String(), func(b *testing.B) {
			in := tsp.MustLoadBenchmark("kroC100")
			c, err := aco.New(in, aco.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Iterate(variant)
			}
		})
	}
}

// BenchmarkSolveEndToEnd measures the public API end to end.
func BenchmarkSolveEndToEnd(b *testing.B) {
	in := tsp.MustLoadBenchmark("att48")
	b.Run("cpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 5, Backend: antgpu.BackendGPU})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorLaunch measures the raw per-launch overhead of the
// simulator with a trivial kernel.
func BenchmarkSimulatorLaunch(b *testing.B) {
	dev := cuda.TeslaC1060()
	buf := cuda.MallocF32("x", 1<<16)
	cfg := cuda.LaunchConfig{Grid: cuda.D1(64), Block: cuda.D1(256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cuda.Launch(dev, cfg, "copy", func(blk *cuda.Block) {
			blk.Run(func(t *cuda.Thread) {
				buf.Data()[t.GlobalID()] = float32(t.GlobalID())
				t.Charge(1)
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ----------

// BenchmarkAblationTheta sweeps the tiled scatter-to-gather tile size.
func BenchmarkAblationTheta(b *testing.B) {
	cfg := bench.Config{Instances: []string{"a280"}, SampleBudget: 16 << 20}
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationTheta(cuda.TeslaC1060(), cfg, []int{64, 256, 512})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "theta = 64"), "simms/theta64")
			b.ReportMetric(cell(t, "theta = 256"), "simms/theta256")
		}
	}
}

// BenchmarkAblationBlockSize sweeps the data-parallel block size.
func BenchmarkAblationBlockSize(b *testing.B) {
	cfg := bench.Config{Instances: []string{"kroC100"}, SampleBudget: 16 << 20}
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationDataBlock(cuda.TeslaC1060(), cfg, []int{64, 128, 256})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "block = 128 threads"), "simms/block128")
		}
	}
}

// BenchmarkAblationNN sweeps the nearest-neighbour list length.
func BenchmarkAblationNN(b *testing.B) {
	cfg := bench.Config{Instances: []string{"kroC100"}, SampleBudget: 16 << 20}
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationNN(cuda.TeslaC1060(), cfg, []int{10, 30, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(t, "nn = 30"), "simms/nn30")
		}
	}
}

// BenchmarkGPULocalSearch measures the 2-opt kernel on constructed tours.
func BenchmarkGPULocalSearch(b *testing.B) {
	in := tsp.MustLoadBenchmark("kroC100")
	e, err := core.NewEngine(cuda.TeslaC1060(), in, aco.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := e.ConstructTours(core.TourNNList); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stage, err := e.LocalSearchKernel()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(stage.Millis(), "simms")
		}
	}
}

// BenchmarkCPUTwoOpt measures the sequential 2-opt from random tours.
func BenchmarkCPUTwoOpt(b *testing.B) {
	in := tsp.MustLoadBenchmark("kroC100")
	nnList := in.NNList(20)
	tour := in.NearestNeighbourTour(0)
	work := make([]int32, len(tour))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, tour)
		aco.TwoOpt(in, work, nnList, 20, nil)
	}
}
