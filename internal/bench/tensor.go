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
	"antgpu/internal/tensor"
	"antgpu/internal/tsp"
)

// TensorConfig controls the tensor-engine benchmark: host wall-clock of
// the tensorized float32 engine against the float64 reference colony and
// the warp-vector SIMT simulator, across the TSPLIB sweep.
type TensorConfig struct {
	// Instances to sweep; empty selects the paper's benchmarks up to
	// pr1002 (pr2392 multiplies the suite's runtime for no extra signal).
	Instances []string
	// Iterations per engine per instance; zero selects 5.
	Iterations int
	// Seed for all three engines; zero selects 1.
	Seed uint64
	// SkipSim skips the simulator column (the slowest engine by far) —
	// used by the CI regression gate, which only compares tensor vs CPU.
	SkipSim bool
	// Workers are the tensor-engine worker counts to sweep; each count
	// yields its own row against the same CPU (and simulator) baseline.
	// Empty selects {1, 2, 4, 8}. The engine is worker-count-invariant,
	// so the sweep doubles as an end-to-end determinism check: Tensor
	// fails if any count solves to a different best length.
	Workers []int
}

func (c TensorConfig) withDefaults() TensorConfig {
	if len(c.Instances) == 0 {
		c.Instances = []string{"att48", "kroC100", "a280", "pcb442", "d657", "pr1002"}
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	return c
}

// TensorRow is one instance's three-way measurement. An ant-step is one
// city selection by one ant: iterations·m·(n-1) of them per run, the same
// for every engine, so ns/ant-step is directly comparable across columns.
type TensorRow struct {
	Instance   string `json:"instance"`
	N          int    `json:"n"`
	Ants       int    `json:"ants"`
	Iterations int    `json:"iterations"`
	// Workers is the tensor engine's worker count for this row; the CPU
	// and simulator columns are single-threaded regardless.
	Workers int `json:"workers"`
	// GoMaxProcs is the effective scheduler parallelism when the row was
	// measured — the honest context for any speedup number: 8 workers on
	// GOMAXPROCS=1 time-slice one core and cannot beat 1 worker.
	GoMaxProcs int `json:"gomaxprocs"`

	CPUWallMs    float64 `json:"cpu_wall_ms"`
	TensorWallMs float64 `json:"tensor_wall_ms"`
	SimWallMs    float64 `json:"sim_wall_ms,omitempty"`

	CPUNsPerAntStep    float64 `json:"cpu_ns_per_ant_step"`
	TensorNsPerAntStep float64 `json:"tensor_ns_per_ant_step"`
	SimNsPerAntStep    float64 `json:"sim_ns_per_ant_step,omitempty"`

	// TensorStepsPerSec is the end-to-end construction throughput of the
	// tensor engine in ant-steps per second.
	TensorStepsPerSec float64 `json:"tensor_steps_per_sec"`

	// SpeedupVsCPU = CPU wall / tensor wall (the acceptance headline);
	// SpeedupVsSim = simulator host wall / tensor wall; SpeedupVsW1 =
	// this configuration's single-worker wall / this wall (the
	// worker-scaling curve; set when the sweep includes workers=1).
	SpeedupVsCPU float64 `json:"speedup_vs_cpu"`
	SpeedupVsSim float64 `json:"speedup_vs_sim,omitempty"`
	SpeedupVsW1  float64 `json:"speedup_vs_w1,omitempty"`

	// Best lengths, to show the float32 engine optimises comparably.
	CPUBest    int64 `json:"cpu_best"`
	TensorBest int64 `json:"tensor_best"`
}

// TensorResult is the sweep, shaped for BENCH_tensor.json.
type TensorResult struct {
	Iterations int    `json:"iterations"`
	Seed       uint64 `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU is the machine's core count at measurement time — worker
	// counts past it cannot add real parallelism.
	NumCPU int         `json:"num_cpu,omitempty"`
	Rows   []TensorRow `json:"rows"`
}

// Tensor benchmarks the tensor engine end to end against the CPU colony
// and (unless skipped) the warp-vector simulator, in two parameter
// classes. The first is the paper's benchmark setup: m = n ants, all three
// engines. The second, run on the larger instances and labelled "/m25", is
// ACOTSP's default colony size of 25 ants — the regime the tensorized
// reformulation targets: with few ants the colony's per-iteration
// choice-info recomputation (2n² math.Pow) dominates its wall-clock, and
// that is exactly the stage the tensor engine's incremental weight
// maintenance eliminates. Wall-clock is host time for all engines (the
// simulator column, m = n rows only, is the host cost of simulating, not
// the modelled device time).
func Tensor(cfg TensorConfig) (*TensorResult, error) {
	cfg = cfg.withDefaults()
	res := &TensorResult{
		Iterations: cfg.Iterations,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, name := range cfg.Instances {
		in, err := tsp.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		rows, err := tensorRows(in, name, 0, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
		if in.N() >= 280 {
			rows, err := tensorRows(in, name+"/m25", 25, cfg)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, rows...)
		}
	}
	return res, nil
}

// minMeasureWall is the cumulative wall-clock floor under which a
// measurement repeats: a 5-iteration run on a small configuration
// finishes in single-digit milliseconds, where one scheduler hiccup is a
// 30% error — far past the CI gate's 20% slack. Repeating until the
// total passes the floor (capped at maxMeasureReps) and keeping the
// minimum wall bounds that noise; long runs already past the floor pay
// nothing.
const (
	minMeasureWall = 100 * time.Millisecond
	maxMeasureReps = 5
)

// minWall invokes run — which times one fresh solve itself, keeping
// engine construction out of the measurement — repeatedly under the
// repeat policy above and returns the minimum single-run wall plus the
// last run's best length (runs are deterministic, so every repeat solves
// to the same best).
func minWall(run func() (time.Duration, int64)) (time.Duration, int64) {
	var (
		min   time.Duration
		best  int64
		total time.Duration
	)
	for rep := 0; ; rep++ {
		var w time.Duration
		w, best = run()
		total += w
		if rep == 0 || w < min {
			min = w
		}
		if total >= minMeasureWall || rep+1 >= maxMeasureReps {
			return min, best
		}
	}
}

// tensorRows measures one (instance, ant-count) configuration across the
// worker sweep, one row per worker count against a CPU colony (and
// simulator) baseline measured once; ants = 0 keeps the paper's m = n. The
// simulator column only runs for the m = n class — the simulated kernels
// launch one thread block per ant, so the few-ant configuration is not a
// shape the paper's kernels cover. Every worker count must solve to the
// same best length: a mismatch is a determinism bug, and the sweep fails
// loudly rather than publish it.
func tensorRows(in *tsp.Instance, label string, ants int, cfg TensorConfig) ([]TensorRow, error) {
	p := aco.DefaultParams()
	p.Seed = cfg.Seed
	p.Ants = ants
	base := TensorRow{
		Instance:   label,
		N:          in.N(),
		Ants:       p.AntCount(in.N()),
		Iterations: cfg.Iterations,
	}
	antSteps := float64(cfg.Iterations) * float64(base.Ants) * float64(in.N()-1)

	if _, err := aco.New(in, p); err != nil {
		return nil, fmt.Errorf("%s: colony: %w", label, err)
	}
	cpuWall, cpuBest := minWall(func() (time.Duration, int64) {
		c, _ := aco.New(in, p)
		start := time.Now()
		for i := 0; i < cfg.Iterations; i++ {
			c.Iterate(aco.NNListConstruction)
		}
		return time.Since(start), c.BestLen
	})
	base.CPUWallMs = float64(cpuWall.Nanoseconds()) / 1e6
	base.CPUNsPerAntStep = float64(cpuWall.Nanoseconds()) / antSteps
	base.CPUBest = cpuBest

	if !cfg.SkipSim && ants == 0 {
		tv := core.DefaultTourVersion(in.N())
		var simErr error
		simWall, _ := minWall(func() (time.Duration, int64) {
			g, err := core.NewEngine(cuda.TeslaM2050(), in, p)
			if err != nil {
				simErr = err
				return minMeasureWall, 0 // stop repeating; the error surfaces below
			}
			start := time.Now()
			for i := 0; i < cfg.Iterations && err == nil; i++ {
				_, err = g.Iterate(tv, core.PherAtomicShared)
			}
			w := time.Since(start)
			g.Free()
			if err != nil {
				simErr = err
				return minMeasureWall, 0
			}
			return w, 0
		})
		if simErr != nil {
			return nil, fmt.Errorf("%s: simulator: %w", label, simErr)
		}
		base.SimWallMs = float64(simWall.Nanoseconds()) / 1e6
		base.SimNsPerAntStep = float64(simWall.Nanoseconds()) / antSteps
	}

	rows := make([]TensorRow, 0, len(cfg.Workers))
	w1Wall := time.Duration(0)
	for _, w := range cfg.Workers {
		p.Workers = w
		e, err := tensor.New(in, p)
		if err != nil {
			return nil, fmt.Errorf("%s: tensor: %w", label, err)
		}
		e.Close()
		tenWall, tenBest := minWall(func() (time.Duration, int64) {
			e, _ := tensor.New(in, p)
			defer e.Close()
			start := time.Now()
			for i := 0; i < cfg.Iterations; i++ {
				e.Iterate(aco.NNListConstruction)
			}
			return time.Since(start), e.BestLen
		})

		row := base
		row.Workers = w
		row.GoMaxProcs = runtime.GOMAXPROCS(0)
		row.TensorWallMs = float64(tenWall.Nanoseconds()) / 1e6
		row.TensorNsPerAntStep = float64(tenWall.Nanoseconds()) / antSteps
		row.TensorStepsPerSec = antSteps / tenWall.Seconds()
		row.TensorBest = tenBest
		if tenWall > 0 {
			row.SpeedupVsCPU = float64(cpuWall) / float64(tenWall)
			if row.SimWallMs > 0 {
				row.SpeedupVsSim = row.SimWallMs / row.TensorWallMs
			}
		}
		if w == 1 {
			w1Wall = tenWall
		}
		if w1Wall > 0 && tenWall > 0 {
			row.SpeedupVsW1 = float64(w1Wall) / float64(tenWall)
		}
		if len(rows) > 0 && tenBest != rows[0].TensorBest {
			return nil, fmt.Errorf("%s: tensor best diverged across worker counts: %d at %d workers, %d at %d workers",
				label, rows[0].TensorBest, rows[0].Workers, tenBest, w)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CompareTensor gates CI on tensor-engine performance regressions: it
// fails when the new run's tensor-vs-CPU speedup falls more than slack
// (e.g. 0.20 for 20%) below the committed baseline on any instance both
// runs cover. The ratio of two same-process wall-clocks is used rather
// than raw ns/ant-step so the gate holds across machines of different
// absolute speed.
func CompareTensor(baseline, current *TensorResult, slack float64) error {
	// Rows are keyed by instance AND worker count — an 8-worker run is a
	// different configuration from a 1-worker run and only gates against
	// its own baseline. Pre-sweep baselines carry no workers field; their
	// zero reads as the single-worker configuration they measured.
	key := func(r TensorRow) string {
		w := r.Workers
		if w == 0 {
			w = 1
		}
		return fmt.Sprintf("%s@w%d", r.Instance, w)
	}
	base := make(map[string]TensorRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[key(r)] = r
	}
	matched := 0
	for _, r := range current.Rows {
		b, ok := base[key(r)]
		if !ok {
			continue
		}
		matched++
		floor := b.SpeedupVsCPU * (1 - slack)
		if r.SpeedupVsCPU < floor {
			return fmt.Errorf("tensor perf regression on %s: speedup vs CPU %.2fx, baseline %.2fx (floor %.2fx at %d%% slack)",
				key(r), r.SpeedupVsCPU, b.SpeedupVsCPU, floor, int(slack*100))
		}
	}
	if matched == 0 {
		return fmt.Errorf("tensor gate: no instances in common between baseline and current run")
	}
	return nil
}

// WriteJSON writes the result as indented JSON (the BENCH_tensor.json
// format).
func (r *TensorResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadTensorResult parses a BENCH_tensor.json previously written with
// WriteJSON.
func ReadTensorResult(rd io.Reader) (*TensorResult, error) {
	var r TensorResult
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing tensor baseline: %w", err)
	}
	return &r, nil
}

// Format writes a human-readable summary.
func (r *TensorResult) Format(w io.Writer) {
	fmt.Fprintf(w, "tensor engine: %d iterations/engine, seed %d, GOMAXPROCS %d, %d cores\n",
		r.Iterations, r.Seed, r.GoMaxProcs, r.NumCPU)
	fmt.Fprintf(w, "  %-10s %6s %6s %4s %12s %12s %12s %10s %10s %8s %12s %12s\n",
		"instance", "n", "ants", "wrk", "cpu ns/st", "tensor ns/st", "sim ns/st",
		"vs cpu", "vs sim", "vs w1", "cpu best", "tensor best")
	for _, k := range r.Rows {
		sim := "-"
		vsSim := "-"
		if k.SimNsPerAntStep > 0 {
			sim = fmt.Sprintf("%.1f", k.SimNsPerAntStep)
			vsSim = fmt.Sprintf("%.2fx", k.SpeedupVsSim)
		}
		vsW1 := "-"
		if k.SpeedupVsW1 > 0 {
			vsW1 = fmt.Sprintf("%.2fx", k.SpeedupVsW1)
		}
		fmt.Fprintf(w, "  %-10s %6d %6d %4d %12.1f %12.1f %12s %9.2fx %10s %8s %12d %12d\n",
			k.Instance, k.N, k.Ants, k.Workers, k.CPUNsPerAntStep, k.TensorNsPerAntStep, sim,
			k.SpeedupVsCPU, vsSim, vsW1, k.CPUBest, k.TensorBest)
	}
}
