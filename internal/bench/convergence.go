package bench

import (
	"fmt"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// ConvergenceSeries tracks best-so-far tour length against iteration count
// for the CPU Ant System and the GPU algorithm variants, on one instance.
// Columns are iteration checkpoints; values are best/greedy ratios, so the
// rows of different algorithms are directly comparable.
func ConvergenceSeries(dev *cuda.Device, instName string, checkpoints []int) (*Table, error) {
	start := time.Now()
	in, err := tsp.LoadBenchmark(instName)
	if err != nil {
		return nil, err
	}
	if len(checkpoints) == 0 {
		checkpoints = []int{1, 5, 10, 20, 40, 80}
	}
	last := checkpoints[len(checkpoints)-1]
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

	// Each runner advances one iteration per call and reports best-so-far.
	type stepper func() (int64, error)
	series := func(name string, step stepper) error {
		vals := make([]float64, len(checkpoints))
		k := 0
		for it := 1; it <= last && k < len(checkpoints); it++ {
			best, err := step()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if it == checkpoints[k] {
				vals[k] = float64(best) / greedy
				k++
			}
		}
		t.AddRow(name, vals)
		return nil
	}

	cpu, err := aco.New(in, aco.DefaultParams())
	if err != nil {
		return nil, err
	}
	if err := series("AS, sequential CPU", func() (int64, error) {
		cpu.Iterate(aco.NNListConstruction)
		return cpu.BestLen, nil
	}); err != nil {
		return nil, err
	}

	gpu, err := core.NewEngine(dev, in, aco.DefaultParams())
	if err != nil {
		return nil, err
	}
	defer gpu.Free()
	if err := series("AS, GPU (v8 + atomic)", func() (int64, error) {
		res, err := gpu.Iterate(core.TourDataParallelTexture, core.PherAtomicShared)
		if err != nil {
			return 0, err
		}
		_ = res
		_, best := gpu.Best()
		return best, nil
	}); err != nil {
		return nil, err
	}

	acsP := aco.DefaultACSParams()
	acs, err := core.NewACSEngine(dev, in, acsP, nil)
	if err != nil {
		return nil, err
	}
	defer acs.Free()
	if err := series("ACS, GPU", func() (int64, error) {
		if _, err := acs.Iterate(); err != nil {
			return 0, err
		}
		_, best := acs.Best()
		return best, nil
	}); err != nil {
		return nil, err
	}

	mmasP := aco.DefaultMMASParams()
	mmas, err := core.NewMMASEngine(dev, in, mmasP, nil)
	if err != nil {
		return nil, err
	}
	defer mmas.Free()
	if err := series("MMAS, GPU", func() (int64, error) {
		if _, err := mmas.Iterate(core.TourNNShared); err != nil {
			return 0, err
		}
		_, best := mmas.Best()
		return best, nil
	}); err != nil {
		return nil, err
	}

	t.HostSeconds = time.Since(start).Seconds()
	return t, nil
}
