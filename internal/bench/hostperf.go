package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// HostPerfConfig controls the host-performance benchmark of the simulator
// itself: how fast the host executes the ported kernels under the scalar
// reference path versus the warp-vector fast path.
type HostPerfConfig struct {
	// Instance to run the kernels on; empty selects kroC100, large enough
	// that per-launch fixed costs do not dominate.
	Instance string
	// Repeats is the number of timed launches per kernel per path; zero
	// selects 5.
	Repeats int
}

func (c HostPerfConfig) withDefaults() HostPerfConfig {
	if c.Instance == "" {
		c.Instance = "kroC100"
	}
	if c.Repeats == 0 {
		c.Repeats = 5
	}
	return c
}

// HostPerfKernel is one kernel's scalar-vs-vector host measurement.
type HostPerfKernel struct {
	Name string `json:"name"`
	// LaneOps is the simulated lane operations per launch — identical
	// between the two paths by the meter-equivalence contract.
	LaneOps int64 `json:"lane_ops_per_launch"`
	// Ns/lane-op of host wall-clock under each path.
	ScalarNsPerLaneOp float64 `json:"scalar_ns_per_lane_op"`
	VectorNsPerLaneOp float64 `json:"vector_ns_per_lane_op"`
	// Host heap allocations per launch under each path.
	ScalarAllocsPerLaunch float64 `json:"scalar_allocs_per_launch"`
	VectorAllocsPerLaunch float64 `json:"vector_allocs_per_launch"`
	// Speedup = ScalarNsPerLaneOp / VectorNsPerLaneOp.
	Speedup float64 `json:"speedup"`
}

// HostPerfResult is the host-performance measurement, shaped for the
// BENCH_hostperf.json trajectory.
type HostPerfResult struct {
	Instance   string           `json:"instance"`
	Device     string           `json:"device"`
	Repeats    int              `json:"repeats"`
	NumCPU     int              `json:"num_cpu"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Kernels    []HostPerfKernel `json:"kernels"`
}

// hostPerfSpec names one stage and how to launch it on an engine.
type hostPerfSpec struct {
	name string
	run  func(*core.Engine) ([]*cuda.LaunchResult, error)
}

func stageRun(f func(*core.Engine) (*core.StageResult, error)) func(*core.Engine) ([]*cuda.LaunchResult, error) {
	return func(e *core.Engine) ([]*cuda.LaunchResult, error) {
		s, err := f(e)
		if s == nil {
			return nil, err
		}
		return s.Kernels, err
	}
}

func singleRun(f func(*core.Engine) (*cuda.LaunchResult, error)) func(*core.Engine) ([]*cuda.LaunchResult, error) {
	return func(e *core.Engine) ([]*cuda.LaunchResult, error) {
		r, err := f(e)
		if r == nil {
			return nil, err
		}
		return []*cuda.LaunchResult{r}, err
	}
}

func hostPerfSpecs() []hostPerfSpec {
	specs := []hostPerfSpec{
		{"choice", singleRun((*core.Engine).ChoiceKernel)},
		{"rngfill", singleRun((*core.Engine).FillRandoms)},
		{"tour-data", stageRun(func(e *core.Engine) (*core.StageResult, error) {
			return e.ConstructTours(core.TourDataParallel)
		})},
		{"tour-data-tex", stageRun(func(e *core.Engine) (*core.StageResult, error) {
			return e.ConstructTours(core.TourDataParallelTexture)
		})},
	}
	for _, pv := range core.PherVersions {
		pv := pv
		specs = append(specs, hostPerfSpec{"pher-" + pv.String(), stageRun(func(e *core.Engine) (*core.StageResult, error) {
			return e.UpdatePheromone(pv)
		})})
	}
	specs = append(specs, hostPerfSpec{"twoopt", stageRun((*core.Engine).LocalSearchKernel)})
	return specs
}

// measureHost times `repeats` launches of one stage on the given engine and
// returns the simulated lane operations per launch, host ns per lane
// operation, and heap allocations per launch. One warm-up launch populates
// pools and yields the lane-op count.
func measureHost(e *core.Engine, repeats int, run func(*core.Engine) ([]*cuda.LaunchResult, error)) (laneOps int64, nsPerOp, allocs float64, err error) {
	ks, err := run(e)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, k := range ks {
		laneOps += k.Meter.LaneOps
	}
	if laneOps == 0 {
		return 0, 0, 0, fmt.Errorf("stage metered zero lane operations")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := run(e); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(repeats) / float64(laneOps)
	allocs = float64(after.Mallocs-before.Mallocs) / float64(repeats)
	return laneOps, nsPerOp, allocs, nil
}

// HostPerf benchmarks the host cost of every ported kernel under the scalar
// reference path and the warp-vector fast path on a simulated Tesla M2050,
// reporting host wall-clock ns per simulated lane operation, allocations per
// launch, and the vector-path speed-up.
func HostPerf(cfg HostPerfConfig) (*HostPerfResult, error) {
	cfg = cfg.withDefaults()
	in, err := tsp.LoadBenchmark(cfg.Instance)
	if err != nil {
		return nil, err
	}
	dev := cuda.TeslaM2050()
	res := &HostPerfResult{
		Instance:   cfg.Instance,
		Device:     dev.Name,
		Repeats:    cfg.Repeats,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	newEngine := func(vector bool) (*core.Engine, error) {
		e, err := core.NewEngine(dev, in, aco.DefaultParams())
		if err != nil {
			return nil, err
		}
		e.Vector = vector
		return e, nil
	}
	scalar, err := newEngine(false)
	if err != nil {
		return nil, err
	}
	defer scalar.Free()
	vector, err := newEngine(true)
	if err != nil {
		return nil, err
	}
	defer vector.Free()

	for _, spec := range hostPerfSpecs() {
		k := HostPerfKernel{Name: spec.name}
		sOps, sNs, sAllocs, err := measureHost(scalar, cfg.Repeats, spec.run)
		if err != nil {
			return nil, fmt.Errorf("%s scalar: %w", spec.name, err)
		}
		vOps, vNs, vAllocs, err := measureHost(vector, cfg.Repeats, spec.run)
		if err != nil {
			return nil, fmt.Errorf("%s vector: %w", spec.name, err)
		}
		if sOps != vOps {
			return nil, fmt.Errorf("%s: lane-op counts diverge between paths: scalar %d, vector %d",
				spec.name, sOps, vOps)
		}
		k.LaneOps = sOps
		k.ScalarNsPerLaneOp, k.VectorNsPerLaneOp = sNs, vNs
		k.ScalarAllocsPerLaunch, k.VectorAllocsPerLaunch = sAllocs, vAllocs
		if vNs > 0 {
			k.Speedup = sNs / vNs
		}
		res.Kernels = append(res.Kernels, k)
	}
	return res, nil
}

// WriteJSON writes the result as indented JSON (the BENCH_hostperf.json
// format).
func (r *HostPerfResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format writes a human-readable summary.
func (r *HostPerfResult) Format(w io.Writer) {
	fmt.Fprintf(w, "host performance: %s on simulated %s, %d launches/kernel/path, %d CPUs, GOMAXPROCS %d\n",
		r.Instance, r.Device, r.Repeats, r.NumCPU, r.GoMaxProcs)
	fmt.Fprintf(w, "  %-24s %14s %14s %14s %9s %13s %13s\n",
		"kernel", "lane-ops", "scalar ns/op", "vector ns/op", "speedup", "scalar allocs", "vector allocs")
	for _, k := range r.Kernels {
		fmt.Fprintf(w, "  %-24s %14d %14.3f %14.3f %8.2fx %13.1f %13.1f\n",
			k.Name, k.LaneOps, k.ScalarNsPerLaneOp, k.VectorNsPerLaneOp, k.Speedup,
			k.ScalarAllocsPerLaunch, k.VectorAllocsPerLaunch)
	}
}
