package bench

import (
	"fmt"
	"time"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
)

// QualityTable checks the paper's side remark that the GPU implementations'
// solution quality is "similar to those obtained by the sequential code":
// it runs the CPU Ant System, the GPU Ant System (data-parallel and NN-list
// construction), and the ACS/MMAS extensions for the same iteration budget
// and reports each best tour as a ratio to the greedy nearest-neighbour
// tour (lower is better; < 1 beats greedy). Every row is one SolveOptions
// value through antgpu.Solve on cfg.Params; ACS and MMAS run their default
// parameters with cfg.Params.Seed.
func QualityTable(dev *cuda.Device, cfg Config, iterations int) (*Table, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	if iterations <= 0 {
		iterations = 30
	}
	instances, err := loadAll(cfg.Instances)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:     fmt.Sprintf("Solution quality after %d iterations, %s", iterations, dev.Name),
		Unit:      "best tour / greedy NN tour (lower is better)",
		Instances: cfg.Instances,
	}

	gpu := func(o antgpu.SolveOptions) antgpu.SolveOptions {
		o.Backend, o.Device = antgpu.BackendGPU, dev
		return o
	}
	configs := []struct {
		name string
		opts antgpu.SolveOptions
	}{
		{"AS, sequential CPU", antgpu.SolveOptions{Variant: aco.NNListConstruction}},
		{"AS, GPU data-parallel (v8)", gpu(antgpu.SolveOptions{Tour: core.TourDataParallelTexture})},
		{"AS, GPU NN-list (v6)", gpu(antgpu.SolveOptions{Tour: core.TourNNSharedTexture})},
		{"AS + 2-opt, GPU", gpu(antgpu.SolveOptions{Tour: core.TourNNList, LocalSearch: true})},
		{"EAS, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmEAS})},
		{"ASrank, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmRank})},
		{"ACS, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmACS})},
		{"MMAS, GPU", gpu(antgpu.SolveOptions{Algorithm: antgpu.AlgorithmMMAS})},
	}

	greedy := make([]float64, len(instances))
	for i, in := range instances {
		greedy[i] = float64(in.TourLength(in.NearestNeighbourTour(0)))
	}

	for _, c := range configs {
		vals := make([]float64, len(instances))
		opts := c.opts
		opts.Params, opts.Iterations = cfg.Params, iterations
		for i, in := range instances {
			res, err := antgpu.Solve(in, opts)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.name, in.Name, err)
			}
			vals[i] = float64(res.BestLen) / greedy[i]
		}
		t.AddRow(c.name, vals)
	}
	t.HostSeconds = time.Since(start).Seconds()
	return t, nil
}
