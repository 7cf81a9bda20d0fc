// Package antgpu is a Go reproduction of Cecilia, García, Ujaldón, Nisbet
// and Amos, "Parallelization Strategies for Ant Colony Optimisation on
// GPUs" (IPDPS Workshops / arXiv:1101.2678, 2011).
//
// The library solves the symmetric Travelling Salesman Problem with the
// Ant System, either on the sequential CPU baseline (a Go port of the
// Stützle ACOTSP code the paper compares against) or on a deterministic
// functional SIMT simulator of the paper's two GPUs — the Tesla C1060 and
// Tesla M2050 — running the paper's kernel designs: eight tour-construction
// versions (Table II) and five pheromone-update versions (Tables III/IV).
//
// Quick start:
//
//	in, _ := antgpu.LoadBenchmark("att48")
//	res, _ := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 50})
//	fmt.Println(res.BestLen, res.BestTour)
//
// To run on the simulated GPU instead:
//
//	opts := antgpu.SolveOptions{
//		Iterations: 50,
//		Backend:    antgpu.BackendGPU,
//		Device:     antgpu.TeslaM2050(),
//	}
//	res, _ := antgpu.Solve(in, opts)
//	fmt.Printf("simulated GPU time: %.2f ms\n", res.SimulatedSeconds*1e3)
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/acobench; the underlying pieces (the simulator, the
// kernels, the instrumented CPU baseline) are re-exported here for
// programmatic use.
package antgpu

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/metrics"
	"antgpu/internal/obslog"
	"antgpu/internal/sched"
	"antgpu/internal/tensor"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Re-exported substrate types. The facade keeps downstream users to one
// import while the implementation stays in focused internal packages.
type (
	// Instance is a symmetric TSP instance (TSPLIB-compatible).
	Instance = tsp.Instance
	// Params are the Ant System parameters (α, β, ρ, m, nn, seed).
	Params = aco.Params
	// Colony is the sequential CPU Ant System.
	Colony = aco.Colony
	// Engine is the GPU Ant System on the simulated device.
	Engine = core.Engine
	// Device is a simulated GPU model.
	Device = cuda.Device
	// TourVersion selects a tour-construction kernel design (Table II).
	TourVersion = core.TourVersion
	// PherVersion selects a pheromone-update kernel design (Tables III/IV).
	PherVersion = core.PherVersion
	// CPUModel converts instrumented CPU meters into deterministic times.
	CPUModel = aco.CPUModel
	// Trace is a profiling collector: every kernel launch and algorithm
	// phase on one simulated timeline, exportable as a Chrome trace-event
	// JSON (WriteChromeTrace) or a per-kernel summary (WriteSummary).
	Trace = trace.Collector
	// KernelSummary is one aggregated per-kernel row of a Trace summary.
	KernelSummary = trace.KernelSummary
	// FaultPlan is a seed-driven deterministic fault-injection plan for the
	// simulated device: launch failures, watchdog timeouts, ECC bit flips
	// and allocation failures at configurable rates.
	FaultPlan = cuda.FaultPlan
	// RecoveryOptions tune the fault-tolerant solver runtime (retry budget,
	// backoff, CPU failover).
	RecoveryOptions = core.RecoveryOptions
	// RecoveryReport records what the fault-tolerant runtime did during a
	// solve (faults, retries, resets, degradation).
	RecoveryReport = core.RecoveryReport
)

// Typed device-fault errors, matchable with errors.Is on any error returned
// by a GPU-backend Solve.
var (
	ErrLaunchFailed = cuda.ErrLaunchFailed
	ErrOOM          = cuda.ErrOOM
	ErrWatchdog     = cuda.ErrWatchdog
	ErrECC          = cuda.ErrECC
)

// ErrInvalidParams is wrapped by every parameter-validation failure (AS,
// ACS and MMAS alike): out-of-range α, β, ρ, ant counts, NN widths, q0, ξ.
// Match it with errors.Is to distinguish bad parameters from device faults.
var ErrInvalidParams = aco.ErrInvalidParams

// ParseFaultSpec parses a command-line fault specification like
// "rate=0.02,sticky=0.1,seed=7" into a FaultPlan (see the -inject flag of
// cmd/acotsp and cmd/acobench).
func ParseFaultSpec(spec string) (*FaultPlan, error) { return cuda.ParseFaultSpec(spec) }

// Devices of the paper's evaluation.
var (
	TeslaC1060 = cuda.TeslaC1060
	TeslaM2050 = cuda.TeslaM2050
)

// Tour-construction versions (paper Table II).
const (
	TourBaseline            = core.TourBaseline
	TourChoiceKernel        = core.TourChoiceKernel
	TourDeviceRNG           = core.TourDeviceRNG
	TourNNList              = core.TourNNList
	TourNNShared            = core.TourNNShared
	TourNNSharedTexture     = core.TourNNSharedTexture
	TourDataParallel        = core.TourDataParallel
	TourDataParallelTexture = core.TourDataParallelTexture
)

// Pheromone-update versions (paper Tables III and IV).
const (
	PherAtomicShared       = core.PherAtomicShared
	PherAtomic             = core.PherAtomic
	PherReduction          = core.PherReduction
	PherScatterGatherTiled = core.PherScatterGatherTiled
	PherScatterGather      = core.PherScatterGather
)

// DefaultParams returns the paper's Ant System settings (α=1, β=2, ρ=0.5,
// m=n, nn=30).
func DefaultParams() Params { return aco.DefaultParams() }

// LoadBenchmark returns one of the paper's benchmark instances by name
// (att48, kroC100, a280, pcb442, d657, pr1002, pr2392) — deterministic
// synthetic stand-ins of the TSPLIB originals with identical sizes and
// distance functions.
func LoadBenchmark(name string) (*Instance, error) { return tsp.LoadBenchmark(name) }

// ParseTSPLIB reads a TSPLIB file from disk, so real TSPLIB instances can
// be used instead of the synthetic stand-ins.
func ParseTSPLIB(path string) (*Instance, error) { return tsp.ParseFile(path) }

// Benchmarks lists the paper's benchmark instance names in size order.
func Benchmarks() []string {
	out := make([]string, len(tsp.PaperBenchmarks))
	copy(out, tsp.PaperBenchmarks)
	return out
}

// Backend selects where the Ant System runs.
type Backend int

const (
	// BackendCPU runs the sequential baseline colony.
	BackendCPU Backend = iota
	// BackendGPU runs the paper's kernels on the simulated device.
	BackendGPU
	// BackendTensor runs the host-native tensorized engine: the whole
	// colony iteration as flat float32 matrix kernels with a precomputed
	// weight matrix, fused evaporate+deposit and cumulative-sum roulette.
	// Same seed determinism contract as the CPU colony; tour lengths stay
	// exact int64, only selection probabilities are float32 (DESIGN §17).
	// Supports AS (with local search), ACS and MMAS.
	BackendTensor
)

// String returns the backend's short name, used as a metric label value.
func (b Backend) String() string {
	switch b {
	case BackendCPU:
		return "cpu"
	case BackendGPU:
		return "gpu"
	case BackendTensor:
		return "tensor"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Algorithm selects the ACO variant.
type Algorithm int

const (
	// AlgorithmAS is the Ant System the paper evaluates.
	AlgorithmAS Algorithm = iota
	// AlgorithmACS is the Ant Colony System, the paper's stated future
	// work: pseudo-random proportional rule, local pheromone update,
	// best-so-far global update.
	AlgorithmACS
	// AlgorithmMMAS is the Max-Min Ant System of the paper's related work:
	// single depositing ant, trails clamped to [τmin, τmax], stagnation
	// re-initialisation. Its pheromone update needs no atomics at all.
	AlgorithmMMAS
	// AlgorithmEAS is the Elitist Ant System: the AS update plus a weighted
	// best-so-far deposit each iteration.
	AlgorithmEAS
	// AlgorithmRank is the Rank-based Ant System: only the w best-ranked
	// ants deposit, weighted by rank — another atomics-free update on the
	// GPU.
	AlgorithmRank
)

// String returns the algorithm's short name, used as a metric label value.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmAS:
		return "as"
	case AlgorithmACS:
		return "acs"
	case AlgorithmMMAS:
		return "mmas"
	case AlgorithmEAS:
		return "eas"
	case AlgorithmRank:
		return "rank"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ACSParams are the Ant Colony System parameters.
type ACSParams = aco.ACSParams

// DefaultACSParams returns the standard ACS settings (q0=0.9, ξ=0.1,
// ρ=0.1, m=10).
func DefaultACSParams() ACSParams { return aco.DefaultACSParams() }

// MMASParams are the Max-Min Ant System parameters.
type MMASParams = aco.MMASParams

// DefaultMMASParams returns the standard MMAS settings (ρ=0.02, m=n).
func DefaultMMASParams() MMASParams { return aco.DefaultMMASParams() }

// SolveOptions configures Solve.
type SolveOptions struct {
	// Algorithm selects the ACO variant (default the paper's Ant System).
	Algorithm Algorithm
	// ACS are the Ant Colony System parameters, used when Algorithm is
	// AlgorithmACS; zero value selects DefaultACSParams.
	ACS ACSParams
	// MMAS are the Max-Min Ant System parameters, used when Algorithm is
	// AlgorithmMMAS; zero value selects DefaultMMASParams.
	MMAS MMASParams
	// Params are the AS parameters. Zero-valued fields are treated as unset
	// and filled from DefaultParams one by one, so Params{Seed: 42} runs
	// with the default α, β, ρ and NN but seed 42. The same per-field rule
	// applies to ACS and MMAS (whose unset Seed additionally falls back to
	// Params.Seed). Out-of-range values fail with ErrInvalidParams.
	Params Params
	// Iterations is the number of AS iterations (default 20).
	Iterations int
	// Backend selects the float64 CPU colony (default), the simulated GPU
	// or the float32 tensor engine.
	Backend Backend
	// Device is the simulated GPU (default Tesla M2050). GPU backend only.
	Device *Device
	// Tour selects the construction kernel (default the paper's
	// recommendation per size: data-parallel up to ~500 cities, NN-list
	// beyond). GPU backend only.
	Tour TourVersion
	// Pher selects the pheromone kernel (default atomic + shared memory,
	// the paper's winner). GPU backend only.
	Pher PherVersion
	// Variant selects the construction strategy of the CPU and tensor
	// backends. The zero value is aco.FullProbabilistic, the
	// random-proportional rule over all cities; aco.NNListConstruction
	// restricts the choice to the nearest-neighbour lists.
	Variant aco.Variant
	// LocalSearch applies 2-opt local search (nearest-neighbour candidate
	// lists, don't-look bits) to every ant's tour after construction — the
	// AS + local-search configuration of ACOTSP. Supported for
	// AlgorithmAS on both backends.
	LocalSearch bool
	// Profile records every kernel launch and algorithm phase on a
	// simulated timeline; the collector is returned in Result.Trace. The
	// run stays deterministic: profiling only observes, it never perturbs
	// the simulated clock or the tours.
	Profile bool
	// Faults injects deterministic device faults into the simulated GPU
	// (the plan is cloned, so the same options value always reproduces the
	// same faults). For AlgorithmAS this also engages the fault-tolerant
	// runtime; other algorithms surface the typed fault errors raw. GPU
	// backend only — the CPU backend ignores it.
	Faults *FaultPlan
	// Recovery tunes the fault-tolerant runtime (checkpoint every
	// iteration, bounded retry with backoff, device reset-and-replay,
	// graceful CPU degradation). Setting it — or Faults — routes the solve
	// through that runtime; it is supported for AlgorithmAS on the GPU
	// backend without LocalSearch.
	Recovery *RecoveryOptions
	// Metrics, when non-nil, collects telemetry from the solve into the
	// registry: solve outcome counters on every path, per-kernel hardware
	// counters from the simulated device (GPU backend), and — for
	// AlgorithmAS — per-iteration convergence gauges (best/mean tour
	// length, pheromone entropy, λ-branching). Nil (the default) disables
	// collection at zero cost. The registry only observes; solves stay
	// deterministic and byte-identical with metrics on or off.
	Metrics *Metrics
	// Optimum is the known optimal tour length of the instance, when the
	// caller has one. It feeds the antgpu_optimum_gap_ratio gauge and the
	// Gap field of OnIteration events; zero (unknown) disables both.
	Optimum int64
	// Logger, when non-nil, receives one structured JSON event per solver
	// lifecycle step — solve start/end and, on the fault-tolerant paths,
	// every fault, retry, reset, failover and checkpoint; at debug level
	// also every simulated kernel launch. Events carry the correlation in
	// the solve's context (request ID, job ID — see internal/obslog), which
	// is how the antgpud service keys every line of a solve to the HTTP
	// request that caused it. Nil (the default) disables logging at zero
	// cost; logging only observes, so solver results are byte-identical
	// with it on or off.
	Logger *Logger
	// OnIteration, when non-nil, receives one IterationEvent per completed
	// ACO iteration — iteration best/mean tour length, best-so-far, gap to
	// Optimum, pheromone entropy and λ-branching — called synchronously
	// from the solve goroutine in iteration order. It works with or
	// without Metrics and is produced by the AlgorithmAS paths on both
	// backends (including the fault-tolerant runtime); other algorithms
	// complete without events. This is the feed the antgpud service
	// streams to clients over SSE.
	OnIteration func(IterationEvent)

	// cache, when non-nil, is the batch pool's shared derived-data cache
	// (set by Pool/SolveBatch before dispatching each request). Cached data
	// is deterministic, so a cached and an uncached solve of the same
	// request return byte-identical results.
	cache *sched.Cache
}

// Result reports a Solve run.
type Result struct {
	BestTour []int32
	BestLen  int64
	// SimulatedSeconds is the accumulated simulated GPU time (GPU backend)
	// or the modelled CPU time (CPU backend) of all iterations.
	SimulatedSeconds float64
	// Trace holds the profiling timeline when SolveOptions.Profile is set.
	Trace *Trace
	// Recovery reports the fault-tolerant runtime's activity when the solve
	// ran through it (SolveOptions.Faults or SolveOptions.Recovery set).
	Recovery *RecoveryReport
}

// NewTrace returns an empty profiling collector for callers that drive an
// Engine or Colony directly instead of going through Solve.
func NewTrace() *Trace { return trace.NewCollector() }

// newTracer returns a fresh profiling collector, or nil when profiling is
// off (a nil tracer disables all span and observer hooks). The context's
// correlation, when present, is attached so the exported Chrome trace names
// the request it belongs to and can be joined against the log stream.
func newTracer(ctx context.Context, opts SolveOptions) *trace.Collector {
	if !opts.Profile {
		return nil
	}
	tr := trace.NewCollector()
	if corr, ok := obslog.FromContext(ctx); ok {
		tr.SetCorrelation(corr.RequestID, corr.JobID)
	}
	return tr
}

// launchLogger adapts the solve logger to the device's launch-observer
// hook: one debug event per simulated kernel launch, keyed by the solve's
// correlation. Installed by gpuDevice only when debug logging is on, so
// the launch path's nil check skips it entirely otherwise.
type launchLogger struct {
	ctx context.Context
	lg  *obslog.Logger
}

func (o *launchLogger) ObserveLaunch(cfg *cuda.LaunchConfig, res *cuda.LaunchResult) {
	o.lg.Debug(o.ctx, obslog.EvKernel,
		slog.String("kernel", res.Name),
		slog.String("grid", cfg.Grid.String()),
		slog.String("block", cfg.Block.String()),
		slog.Float64("sim_ms", res.Millis()))
}

// Solve runs the Ant System on the instance and returns the best tour
// found.
func Solve(in *Instance, opts SolveOptions) (*Result, error) {
	return SolveContext(context.Background(), in, opts)
}

// gpuDevice resolves the device option clone-on-solve: the solve always
// runs on a private copy of the caller's device model, carrying its own
// fault plan (a clone of SolveOptions.Faults, so repeated solves with the
// same options inject the same faults — or no plan at all when none was
// requested), allocation accounting and observer hook. The caller's
// *Device is never written, so one device value can back any number of
// concurrent solves.
//
// When a metrics registry is attached, the private clone also carries the
// hardware-counter observer, and when debug logging is on, the
// kernel-launch logger. Both assignments are guarded so a disabled
// registry/logger leaves the field a true nil interface — the launch
// path's nil check then skips the hook entirely.
func gpuDevice(ctx context.Context, opts SolveOptions) *Device {
	dev := opts.Device
	if dev == nil {
		dev = TeslaM2050()
	} else {
		dev = dev.Clone()
	}
	dev.Faults = opts.Faults.Clone()
	if opts.Metrics != nil {
		dev.Metrics = metrics.NewHW(opts.Metrics, dev)
	}
	if opts.Logger.Enabled(slog.LevelDebug) {
		dev.Log = &launchLogger{ctx: ctx, lg: opts.Logger}
	}
	return dev
}

// derivedData fetches the shared instance-derived data from the batch
// cache, or nil for a standalone solve (engines then compute their own).
// A derivation error (e.g. ErrF32Precision for instances whose distances
// exceed the exact float32 range) is surfaced to the caller.
func derivedData(opts SolveOptions, in *Instance, nn int) (*tsp.Derived, error) {
	if opts.cache == nil {
		return nil, nil
	}
	return opts.cache.Derived(in, nn)
}

// SolveContext is Solve with cancellation: the context is checked between
// iterations and its error returned promptly. No panic escapes — internal
// failures come back as errors.
func SolveContext(ctx context.Context, in *Instance, opts SolveOptions) (res *Result, err error) {
	// Registered before the recover handler so it runs after it (defers are
	// LIFO) and sees the final res/err even on a recovered panic.
	if opts.Metrics != nil {
		defer func() { recordSolve(opts.Metrics, opts, res, err) }()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("antgpu: internal error: %v", r)
		}
	}()
	if in == nil {
		return nil, fmt.Errorf("antgpu: nil instance")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 20
	}
	// Default only unset (zero-valued) fields: a Params{Seed: 42} keeps its
	// seed, a deliberate Alpha/Beta/Ants survives. Out-of-range values are
	// rejected by the engines with ErrInvalidParams.
	opts.Params = opts.Params.WithDefaults()
	if opts.Recovery != nil {
		if opts.Algorithm != AlgorithmAS || opts.Backend != BackendGPU || opts.LocalSearch {
			return nil, fmt.Errorf("antgpu: the fault-tolerant runtime supports AlgorithmAS on the GPU backend without local search (the tensor backend checkpoints through tensor.Engine.Checkpoint/Restore instead)")
		}
	}
	if opts.Logger.Enabled(slog.LevelDebug) {
		opts.Logger.Debug(ctx, obslog.EvSolveStart,
			slog.String("backend", opts.Backend.String()),
			slog.String("algorithm", opts.Algorithm.String()),
			slog.Int("n", in.N()), slog.Int("iterations", opts.Iterations))
		defer func() {
			if err != nil {
				opts.Logger.Debug(ctx, obslog.EvSolveEnd, slog.String("err", err.Error()))
			} else if res != nil {
				opts.Logger.Debug(ctx, obslog.EvSolveEnd,
					slog.Int64("best_len", res.BestLen),
					slog.Float64("sim_s", res.SimulatedSeconds))
			}
		}()
	}
	switch opts.Algorithm {
	case AlgorithmACS:
		return solveACS(ctx, in, opts)
	case AlgorithmMMAS:
		return solveMMAS(ctx, in, opts)
	case AlgorithmEAS, AlgorithmRank:
		return solveVariant(ctx, in, opts)
	}
	// Validate before derivedData, not only in the engines: an invalid NN
	// reaching the shared cache would count a miss for a key it never
	// fills and panic deriving the lists.
	if err := opts.Params.Validate(in.N()); err != nil {
		return nil, err
	}
	switch opts.Backend {
	case BackendCPU:
		d, err := derivedData(opts, in, opts.Params.NN)
		if errors.Is(err, tsp.ErrF32Precision) {
			// The float64 colony does not consume the float32 distance
			// matrix, so instances beyond the exact-float32 range stay
			// solvable on the CPU backend — just without the shared cache.
			d = nil
		} else if err != nil {
			return nil, err
		}
		c, err := aco.NewWithDerived(in, opts.Params, d)
		if err != nil {
			return nil, err
		}
		tr := newTracer(ctx, opts)
		c.Tracer = tr
		c.Conv = solveConv(opts, in)
		c.ResetMeters()
		var tour []int32
		var l int64
		if opts.LocalSearch {
			for i := 0; i < opts.Iterations; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				c.ConstructTours(opts.Variant)
				c.LocalSearchTours(c.Ants())
				c.UpdatePheromone()
			}
			tour, l = c.BestTour, c.BestLen
		} else {
			if tour, l, err = c.RunContext(ctx, opts.Variant, opts.Iterations); err != nil {
				return nil, err
			}
		}
		cpu := aco.DefaultCPU()
		total := c.ConstructMeter
		total.Add(&c.PheromoneMeter)
		total.Add(&c.ChoiceMeter)
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: cpu.Seconds(&total), Trace: tr}, nil
	case BackendGPU:
		dev := gpuDevice(ctx, opts)
		tv := opts.Tour
		if tv == 0 {
			if in.N() <= 500 {
				tv = TourDataParallelTexture
			} else {
				tv = TourNNSharedTexture
			}
		}
		pv := opts.Pher
		if pv == 0 {
			pv = PherAtomicShared
		}
		if (opts.Faults != nil || opts.Recovery != nil) && !opts.LocalSearch {
			var ro RecoveryOptions
			if opts.Recovery != nil {
				ro = *opts.Recovery
			}
			tr := newTracer(ctx, opts)
			tour, l, secs, rep, err := core.RunRecovered(ctx, dev, in, opts.Params,
				tv, pv, opts.Iterations, ro, tr, solveConv(opts, in), opts.Logger)
			if err != nil {
				return nil, err
			}
			return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: secs, Trace: tr, Recovery: rep}, nil
		}
		d, err := derivedData(opts, in, opts.Params.NN)
		if err != nil {
			return nil, err
		}
		e, err := core.NewEngineWithOptions(dev, in, opts.Params,
			core.EngineOptions{Derived: d})
		if err != nil {
			return nil, err
		}
		defer e.Free()
		tr := newTracer(ctx, opts)
		if tr != nil {
			e.SetTracer(tr)
		}
		e.SetMetrics(solveConv(opts, in))
		var tour []int32
		var l int64
		var secs float64
		if opts.LocalSearch {
			for i := 0; i < opts.Iterations; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				res, err := e.IterateWithLocalSearch(tv, pv)
				if err != nil {
					return nil, err
				}
				secs += res.Construct.Seconds() + res.Update.Seconds()
			}
			tour, l = e.Best()
		} else {
			tour, l, secs, err = e.RunContext(ctx, tv, pv, opts.Iterations)
			if err != nil {
				return nil, err
			}
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: secs, Trace: tr}, nil
	case BackendTensor:
		d, err := derivedData(opts, in, opts.Params.NN)
		if errors.Is(err, tsp.ErrF32Precision) {
			// Like the CPU colony, the tensor engine scores tours in exact
			// int64 and never reads the float32 distance matrix, so it stays
			// usable beyond the exact-float32 range — without the cache.
			d = nil
		} else if err != nil {
			return nil, err
		}
		e, err := tensor.NewWithDerived(in, opts.Params, d)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		tr := newTracer(ctx, opts)
		e.Tracer = tr
		e.Conv = solveConv(opts, in)
		start := time.Now()
		var tour []int32
		var l int64
		if opts.LocalSearch {
			for i := 0; i < opts.Iterations; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				e.IterateWithLocalSearch(opts.Variant)
			}
			tour, l = e.BestTour, e.BestLen
		} else {
			if tour, l, err = e.RunContext(ctx, opts.Variant, opts.Iterations); err != nil {
				return nil, err
			}
		}
		// The tensor engine runs natively on the host, so the duration is
		// real wall-clock time, not a modelled estimate.
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: time.Since(start).Seconds(), Trace: tr}, nil
	default:
		return nil, fmt.Errorf("antgpu: unknown backend %d", opts.Backend)
	}
}

// solveMMAS runs the Max-Min Ant System variant on either backend. Like
// the AS path, only unset (zero-valued) MMAS fields are defaulted; the
// seed falls back to opts.Params.Seed when unset.
func solveMMAS(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	p := opts.MMAS.WithDefaults(opts.Params.Seed)
	switch opts.Backend {
	case BackendCPU:
		c, err := aco.NewMMASColony(in, p)
		if err != nil {
			return nil, err
		}
		tr := newTracer(ctx, opts)
		c.Tracer = tr
		c.ResetMeters()
		tour, l, err := c.RunContext(ctx, opts.Variant, opts.Iterations)
		if err != nil {
			return nil, err
		}
		cpu := aco.DefaultCPU()
		total := c.ConstructMeter
		total.Add(&c.PheromoneMeter)
		total.Add(&c.ChoiceMeter)
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: cpu.Seconds(&total), Trace: tr}, nil
	case BackendGPU:
		dev := gpuDevice(ctx, opts)
		e, err := core.NewMMASEngine(dev, in, p)
		if err != nil {
			return nil, err
		}
		defer e.Free()
		tr := newTracer(ctx, opts)
		if tr != nil {
			e.SetTracer(tr)
		}
		if opts.Tour != 0 {
			e.SetTourVersion(opts.Tour)
		}
		tour, l, secs, err := e.RunContext(ctx, opts.Iterations)
		if err != nil {
			return nil, err
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: secs, Trace: tr}, nil
	case BackendTensor:
		if p.Workers == 0 {
			// Like the seed, the worker knob falls back to the AS-level
			// Params of the enclosing solve options.
			p.Workers = opts.Params.Workers
		}
		e, err := tensor.NewMMAS(in, p)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		tr := newTracer(ctx, opts)
		e.Tracer = tr
		e.Conv = solveConv(opts, in)
		start := time.Now()
		tour, l, err := e.RunContext(ctx, opts.Variant, opts.Iterations)
		if err != nil {
			return nil, err
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: time.Since(start).Seconds(), Trace: tr}, nil
	default:
		return nil, fmt.Errorf("antgpu: unknown backend %d", opts.Backend)
	}
}

// solveVariant runs the Elitist or Rank-based Ant System on either backend
// with the default variant parameters (e = m, w = 6).
func solveVariant(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	if opts.Backend == BackendTensor {
		return nil, fmt.Errorf("antgpu: the tensor backend supports AS, ACS and MMAS; %v is not tensorized", opts.Algorithm)
	}
	tr := newTracer(ctx, opts)
	switch opts.Backend {
	case BackendCPU:
		var run func() ([]int32, int64, *aco.Colony, error)
		if opts.Algorithm == AlgorithmEAS {
			c, err := aco.NewEASColony(in, opts.Params, 0)
			if err != nil {
				return nil, err
			}
			c.Tracer = tr
			run = func() ([]int32, int64, *aco.Colony, error) {
				tour, l, err := c.RunContext(ctx, opts.Variant, opts.Iterations)
				return tour, l, c.Colony, err
			}
		} else {
			c, err := aco.NewRankColony(in, opts.Params, 0)
			if err != nil {
				return nil, err
			}
			c.Tracer = tr
			run = func() ([]int32, int64, *aco.Colony, error) {
				tour, l, err := c.RunContext(ctx, opts.Variant, opts.Iterations)
				return tour, l, c.Colony, err
			}
		}
		tour, l, col, err := run()
		if err != nil {
			return nil, err
		}
		cpu := aco.DefaultCPU()
		total := col.ConstructMeter
		total.Add(&col.PheromoneMeter)
		total.Add(&col.ChoiceMeter)
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: cpu.Seconds(&total), Trace: tr}, nil
	case BackendGPU:
		dev := gpuDevice(ctx, opts)
		var tour []int32
		var l int64
		var secs float64
		var err error
		if opts.Algorithm == AlgorithmEAS {
			var e *core.EASEngine
			if e, err = core.NewEASEngine(dev, in, opts.Params, 0); err == nil {
				defer e.Free()
				if tr != nil {
					e.SetTracer(tr)
				}
				if opts.Tour != 0 {
					e.SetTourVersion(opts.Tour)
				}
				tour, l, secs, err = e.RunContext(ctx, opts.Iterations)
			}
		} else {
			var r *core.RankEngine
			if r, err = core.NewRankEngine(dev, in, opts.Params, 0); err == nil {
				defer r.Free()
				if tr != nil {
					r.SetTracer(tr)
				}
				if opts.Tour != 0 {
					r.SetTourVersion(opts.Tour)
				}
				tour, l, secs, err = r.RunContext(ctx, opts.Iterations)
			}
		}
		if err != nil {
			return nil, err
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: secs, Trace: tr}, nil
	default:
		return nil, fmt.Errorf("antgpu: unknown backend %d", opts.Backend)
	}
}

// solveACS runs the Ant Colony System variant on either backend. Like the
// AS path, only unset (zero-valued) ACS fields are defaulted; the seed
// falls back to opts.Params.Seed when unset.
func solveACS(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	p := opts.ACS.WithDefaults(opts.Params.Seed)
	switch opts.Backend {
	case BackendCPU:
		c, err := aco.NewACSColony(in, p)
		if err != nil {
			return nil, err
		}
		tr := newTracer(ctx, opts)
		c.Tracer = tr
		c.ResetMeters()
		tour, l, err := c.RunContext(ctx, opts.Iterations)
		if err != nil {
			return nil, err
		}
		cpu := aco.DefaultCPU()
		total := c.ConstructMeter
		total.Add(&c.PheromoneMeter)
		total.Add(&c.ChoiceMeter)
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: cpu.Seconds(&total), Trace: tr}, nil
	case BackendGPU:
		dev := gpuDevice(ctx, opts)
		e, err := core.NewACSEngine(dev, in, p)
		if err != nil {
			return nil, err
		}
		defer e.Free()
		tr := newTracer(ctx, opts)
		if tr != nil {
			e.SetTracer(tr)
		}
		tour, l, secs, err := e.RunContext(ctx, opts.Iterations)
		if err != nil {
			return nil, err
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: secs, Trace: tr}, nil
	case BackendTensor:
		if p.Workers == 0 {
			// Like the seed, the worker knob falls back to the AS-level
			// Params of the enclosing solve options.
			p.Workers = opts.Params.Workers
		}
		e, err := tensor.NewACS(in, p)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		tr := newTracer(ctx, opts)
		e.Tracer = tr
		e.Conv = solveConv(opts, in)
		start := time.Now()
		tour, l, err := e.RunContext(ctx, opts.Iterations)
		if err != nil {
			return nil, err
		}
		return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: time.Since(start).Seconds(), Trace: tr}, nil
	default:
		return nil, fmt.Errorf("antgpu: unknown backend %d", opts.Backend)
	}
}
