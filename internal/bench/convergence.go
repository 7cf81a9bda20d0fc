package bench

import (
	"fmt"
	"time"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// ConvergenceSeries tracks best-so-far tour length against iteration count
// for the CPU Ant System and the GPU algorithm variants, on one instance.
// Columns are iteration checkpoints; values are best/greedy ratios, so the
// rows of different algorithms are directly comparable. Every row is one
// antgpu.Solve at the default parameters, read at the checkpoints through
// its OnIteration events.
func ConvergenceSeries(dev *cuda.Device, instName string, checkpoints []int) (*Table, error) {
	start := time.Now()
	in, err := tsp.LoadBenchmark(instName)
	if err != nil {
		return nil, err
	}
	if len(checkpoints) == 0 {
		checkpoints = []int{1, 5, 10, 20, 40, 80}
	}
	greedy := float64(in.TourLength(in.NearestNeighbourTour(0)))

	labels := make([]string, len(checkpoints))
	for i, c := range checkpoints {
		labels[i] = fmt.Sprintf("iter %d", c)
	}
	t := &Table{
		Title:     fmt.Sprintf("Convergence on %s (%d cities), %s", in.Name, in.N(), dev.Name),
		Unit:      "best-so-far / greedy NN tour",
		Instances: labels,
	}

	gpu := func(o antgpu.SolveOptions) antgpu.SolveOptions {
		o.Backend, o.Device = antgpu.BackendGPU, dev
		return o
	}
	series := []struct {
		name string
		opts antgpu.SolveOptions
	}{
		{"AS, sequential CPU", antgpu.SolveOptions{Variant: aco.NNListConstruction}},
		{"AS, GPU (v8 + atomic)", gpu(antgpu.SolveOptions{Tour: core.TourDataParallelTexture, Pher: core.PherAtomicShared})},
		{"ACS, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmACS})},
		{"MMAS, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmMMAS, Tour: core.TourNNShared})},
	}
	for _, s := range series {
		vals := make([]float64, len(checkpoints))
		k := 0
		opts := s.opts
		opts.Iterations = checkpoints[len(checkpoints)-1]
		opts.OnIteration = func(ev antgpu.IterationEvent) {
			if k < len(checkpoints) && ev.Iteration == checkpoints[k] {
				vals[k] = float64(ev.BestSoFar) / greedy
				k++
			}
		}
		if _, err := antgpu.Solve(in, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		t.AddRow(s.name, vals)
	}
	t.HostSeconds = time.Since(start).Seconds()
	return t, nil
}
