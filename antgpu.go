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
// paper lives in cmd/acobench; the device models, kernel versions, fault
// plans and profiler it solves with are re-exported here for programmatic
// use.
package antgpu

import (
	"context"
	"fmt"
	"log/slog"
	"math"
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
	// Device is a simulated GPU model.
	Device = cuda.Device
	// TourVersion selects a tour-construction kernel design (Table II).
	TourVersion = core.TourVersion
	// PherVersion selects a pheromone-update kernel design (Tables III/IV).
	PherVersion = core.PherVersion
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
	// A value outside the declared constants fails with ErrInvalidParams.
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
	// beyond; MMAS, EAS and Rank default to the NN-list kernel with shared
	// memory). GPU backend only; GPU ACS has a single construction kernel
	// of its own and ignores it.
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
	// AS + local-search configuration of ACOTSP. Supported for AlgorithmAS
	// on every backend; any other algorithm fails with ErrInvalidParams.
	LocalSearch bool
	// Profile records every iteration's phases, and on the GPU backend
	// every kernel launch, on one timeline; the collector is returned in
	// Result.Trace. Profiling only observes: it never perturbs the tours or
	// SimulatedSeconds. The gpu and cpu timelines run on simulated and
	// modelled time, so same-seed traces are byte-identical; the tensor
	// backend's construct, 2-opt and update leaves carry host wall-clock
	// seconds, so only its event sequence repeats.
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
	// counters from the simulated device (GPU backend), and per-iteration
	// convergence gauges (best/mean tour length, pheromone entropy,
	// λ-branching) for every (backend, algorithm) pair. Nil (the default)
	// disables collection at zero cost. The registry only observes; solves
	// stay deterministic and byte-identical with metrics on or off.
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
	// without Metrics and is produced by every (backend, algorithm) pair,
	// with or without local search, and by the fault-tolerant runtime.
	// This is the feed the antgpud service streams to clients over SSE.
	OnIteration func(IterationEvent)

	// cache, when non-nil, is the batch pool's shared derived-data cache
	// (set by Pool.Submit before it solves each request). Cached data
	// is deterministic, so a cached and an uncached solve of the same
	// request return byte-identical results.
	cache *sched.Cache
}

// Result reports a Solve run.
type Result struct {
	BestTour []int32
	BestLen  int64
	// SimulatedSeconds is the accumulated simulated GPU time (GPU backend),
	// the modelled CPU time (CPU backend) or the host wall-clock time
	// (tensor backend) of all iterations. Engine set-up is excluded.
	SimulatedSeconds float64
	// Trace holds the profiling timeline when SolveOptions.Profile is set:
	// simulated or modelled time on the gpu and cpu backends, host
	// wall-clock leaves on the tensor backend.
	Trace *Trace
	// Recovery reports the fault-tolerant runtime's activity when the solve
	// ran through it (SolveOptions.Faults or SolveOptions.Recovery set).
	Recovery *RecoveryReport
}

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

// Solve runs the selected ACO algorithm on the instance and returns the
// best tour found.
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

// SolveContext is Solve with cancellation: the context is checked between
// iterations and its error returned promptly. No panic escapes — internal
// failures come back as errors. Every (backend, algorithm) pair, the
// fault-tolerant GPU AS solve included, runs through the one loop below
// (DESIGN §19).
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
	if opts.Algorithm < AlgorithmAS || opts.Algorithm > AlgorithmRank {
		return nil, fmt.Errorf("antgpu: unknown algorithm %v: %w", opts.Algorithm, ErrInvalidParams)
	}
	if opts.LocalSearch && opts.Algorithm != AlgorithmAS {
		return nil, fmt.Errorf("antgpu: local search is supported for AlgorithmAS only, not %v: %w",
			opts.Algorithm, ErrInvalidParams)
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
	tr := newTracer(ctx, opts)
	eng, err := newEngine(ctx, in, opts, tr)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	conv := solveConv(opts, in)
	for i := 0; i < opts.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := eng.step(); err != nil {
			return nil, err
		}
		eng.record(conv)
	}
	tour, l := eng.best()
	if tour == nil || l <= 0 || l == math.MaxInt64 {
		return nil, fmt.Errorf("antgpu: %v on the %v backend produced no tour (best length %d)",
			opts.Algorithm, opts.Backend, l)
	}
	if err := in.ValidTour(tour); err != nil {
		return nil, fmt.Errorf("antgpu: %v on the %v backend: %w", opts.Algorithm, opts.Backend, err)
	}
	return &Result{BestTour: tour, BestLen: l, SimulatedSeconds: eng.seconds(), Trace: tr, Recovery: eng.recovery}, nil
}

// gpuVersions resolves the GPU Ant System kernels: the requested versions,
// or the paper's recommendation per size (data-parallel construction up to
// 500 cities, the NN-list kernel beyond) and its winning atomic +
// shared-memory pheromone update.
func gpuVersions(opts SolveOptions, in *Instance) (TourVersion, PherVersion) {
	tv, pv := opts.Tour, opts.Pher
	if tv == 0 {
		tv = core.DefaultTourVersion(in.N())
	}
	if pv == 0 {
		pv = PherAtomicShared
	}
	return tv, pv
}

// engine is one solve's colony as the run loop drives it: step runs one
// iteration, best reads the best-so-far tour, seconds is the time charged
// so far (simulated on gpu, modelled on cpu, wall-clock on tensor), record
// publishes the latest iteration to a convergence recorder, and close
// releases the engine. cpuEngine, gpuEngine and tensorEngine build it over
// the base engine that every algorithm of a backend embeds; the
// fault-tolerant GPU AS solve builds it over a core.Recoverer, whose
// report recovery points to (nil on every other path).
type engine struct {
	step     func() error
	best     func() ([]int32, int64)
	seconds  func() float64
	record   func(*metrics.Convergence)
	close    func()
	recovery *RecoveryReport
}

// cpuEngine adapts a CPU colony. Its stage meters are reset after set-up,
// so the modelled seconds cover the iterations only.
func cpuEngine(c *aco.Colony, tr *trace.Collector, iterate func()) *engine {
	c.Tracer = tr
	c.ResetMeters()
	return &engine{
		step: func() error { iterate(); return nil },
		best: func() ([]int32, int64) { return c.BestTour, c.BestLen },
		seconds: func() float64 {
			total := c.ConstructMeter
			total.Add(&c.PheromoneMeter)
			total.Add(&c.ChoiceMeter)
			return aco.DefaultCPU().Seconds(&total)
		},
		record: c.RecordConvergence,
		close:  func() {},
	}
}

// gpuEngine adapts a simulated-GPU engine. Its seconds are the summed
// simulated kernel time of every iteration.
func gpuEngine(e *core.Engine, tr *trace.Collector, free func(), iterate func() (*core.IterationResult, error)) *engine {
	e.SetTracer(tr)
	secs := 0.0
	return &engine{
		step: func() error {
			res, err := iterate()
			if err != nil {
				return err
			}
			secs += res.Seconds()
			return nil
		},
		best:    e.Best,
		seconds: func() float64 { return secs },
		record:  e.RecordConvergence,
		close:   free,
	}
}

// tensorEngine adapts a tensor engine. It runs natively on the host, so its
// seconds are real wall-clock time since set-up, not a modelled estimate.
func tensorEngine(e *tensor.Engine, tr *trace.Collector, iterate func()) *engine {
	e.Tracer = tr
	start := time.Now()
	return &engine{
		step:    func() error { iterate(); return nil },
		best:    func() ([]int32, int64) { return e.BestTour, e.BestLen },
		seconds: func() float64 { return time.Since(start).Seconds() },
		record:  e.RecordConvergence,
		close:   e.Close,
	}
}

// pair keys the constructor switch.
type pair struct {
	b Backend
	a Algorithm
}

// newEngine builds the engine of the solve's (backend, algorithm) pair.
// Only unset (zero-valued) ACS and MMAS fields are defaulted; their seed
// falls back to opts.Params.Seed, and their worker count to
// opts.Params.Workers. EAS and Rank run with the fixed variant weights
// (e = m, w = aco.RankW).
//
// Every pair takes C^nn, and the NN lists when it reads them, from one
// lookup in the batch pool's derived-data cache (a standalone solve's nil
// cache computes them fresh) at its own parameter set's NN width. The
// lookup comes once the pair is known to be solvable and its parameters
// valid: an invalid NN would count a miss for a key it never fills and
// panic deriving the lists, and any other invalid parameter would count a
// miss for a solve that cannot run. The lists are read by every gpu pair
// (the engine copies them to the device), by 2-opt, by the NN-list rule
// and by ACS's construction; every other solve gets a Derived without
// them. The derived data holds no float32 distances, so it serves every
// backend; the GPU engine enforces the exact-float32 range itself
// (tsp.ErrF32Precision) when it converts the matrix.
func newEngine(ctx context.Context, in *Instance, opts SolveOptions, tr *trace.Collector) (*engine, error) {
	v := opts.Variant
	acs := opts.ACS.WithDefaults(opts.Params.Seed)
	mmas := opts.MMAS.WithDefaults(opts.Params.Seed)
	if acs.Workers == 0 {
		acs.Workers = opts.Params.Workers
	}
	if mmas.Workers == 0 {
		mmas.Workers = opts.Params.Workers
	}
	p, validate := opts.Params, opts.Params.Validate
	switch opts.Algorithm {
	case AlgorithmACS:
		p, validate = acs.Params, acs.Validate
	case AlgorithmMMAS:
		p, validate = mmas.Params, mmas.Validate
	case AlgorithmRank:
		validate = func(n int) error { return aco.ValidateRank(p, n) }
	}
	switch {
	case opts.Backend < BackendCPU || opts.Backend > BackendTensor:
		return nil, fmt.Errorf("antgpu: unknown backend %d", opts.Backend)
	case opts.Backend == BackendTensor && (opts.Algorithm == AlgorithmEAS || opts.Algorithm == AlgorithmRank):
		return nil, fmt.Errorf("antgpu: the tensor backend supports AS, ACS and MMAS; %v is not tensorized", opts.Algorithm)
	}
	if err := validate(in.N()); err != nil {
		return nil, err
	}
	lists := opts.Backend == BackendGPU || opts.LocalSearch || v == aco.NNListConstruction ||
		opts.Algorithm == AlgorithmACS
	d := opts.cache.Derived(in, p.NN, lists)
	// The GPU MMAS, EAS and Rank engines construct with the NN-list kernel
	// with shared memory unless opts.Tour picks another.
	variantTour := opts.Tour
	if variantTour == 0 {
		variantTour = TourNNShared
	}
	switch (pair{opts.Backend, opts.Algorithm}) {
	case pair{BackendCPU, AlgorithmAS}:
		c, err := aco.NewWithDerived(in, p, d)
		if err != nil {
			return nil, err
		}
		if opts.LocalSearch {
			return cpuEngine(c, tr, func() { c.IterateWithLocalSearch(v) }), nil
		}
		return cpuEngine(c, tr, func() { c.Iterate(v) }), nil
	case pair{BackendCPU, AlgorithmACS}:
		a, err := aco.NewACSColony(in, acs, d)
		if err != nil {
			return nil, err
		}
		return cpuEngine(a.Colony, tr, a.Iterate), nil
	case pair{BackendCPU, AlgorithmMMAS}:
		m, err := aco.NewMMASColony(in, mmas, d)
		if err != nil {
			return nil, err
		}
		return cpuEngine(m.Colony, tr, func() { m.Iterate(v) }), nil
	case pair{BackendCPU, AlgorithmEAS}:
		e, err := aco.NewEASColony(in, p, d)
		if err != nil {
			return nil, err
		}
		return cpuEngine(e.Colony, tr, func() { e.Iterate(v) }), nil
	case pair{BackendCPU, AlgorithmRank}:
		r, err := aco.NewRankColony(in, p, d)
		if err != nil {
			return nil, err
		}
		return cpuEngine(r.Colony, tr, func() { r.Iterate(v) }), nil

	case pair{BackendGPU, AlgorithmAS}:
		tv, pv := gpuVersions(opts, in)
		if !opts.LocalSearch && (opts.Faults != nil || opts.Recovery != nil) {
			var ro RecoveryOptions
			if opts.Recovery != nil {
				ro = *opts.Recovery
			}
			r := core.NewRecoverer(gpuDevice(ctx, opts), in, p, d, tv, pv, opts.Iterations, ro, tr, opts.Logger)
			return &engine{
				step:     func() error { return r.Step(ctx) },
				best:     r.Best,
				seconds:  r.Seconds,
				record:   func(conv *metrics.Convergence) { r.Record(ctx, conv) },
				close:    r.Close,
				recovery: r.Report(),
			}, nil
		}
		e, err := core.NewEngineWithOptions(gpuDevice(ctx, opts), in, p, core.EngineOptions{Derived: d})
		if err != nil {
			return nil, err
		}
		if opts.LocalSearch {
			return gpuEngine(e, tr, e.Free, func() (*core.IterationResult, error) { return e.IterateWithLocalSearch(tv, pv) }), nil
		}
		return gpuEngine(e, tr, e.Free, func() (*core.IterationResult, error) { return e.Iterate(tv, pv) }), nil
	case pair{BackendGPU, AlgorithmACS}:
		a, err := core.NewACSEngine(gpuDevice(ctx, opts), in, acs, d)
		if err != nil {
			return nil, err
		}
		return gpuEngine(a.Engine, tr, a.Free, a.Iterate), nil
	case pair{BackendGPU, AlgorithmMMAS}:
		m, err := core.NewMMASEngine(gpuDevice(ctx, opts), in, mmas, d)
		if err != nil {
			return nil, err
		}
		return gpuEngine(m.Engine, tr, m.Free, func() (*core.IterationResult, error) { return m.Iterate(variantTour) }), nil
	case pair{BackendGPU, AlgorithmEAS}:
		e, err := core.NewEASEngine(gpuDevice(ctx, opts), in, p, d)
		if err != nil {
			return nil, err
		}
		return gpuEngine(e.Engine, tr, e.Free, func() (*core.IterationResult, error) { return e.Iterate(variantTour) }), nil
	case pair{BackendGPU, AlgorithmRank}:
		r, err := core.NewRankEngine(gpuDevice(ctx, opts), in, p, d)
		if err != nil {
			return nil, err
		}
		return gpuEngine(r.Engine, tr, r.Free, func() (*core.IterationResult, error) { return r.Iterate(variantTour) }), nil

	case pair{BackendTensor, AlgorithmAS}:
		e, err := tensor.NewWithDerived(in, p, d)
		if err != nil {
			return nil, err
		}
		if opts.LocalSearch {
			return tensorEngine(e, tr, func() { e.IterateWithLocalSearch(v) }), nil
		}
		return tensorEngine(e, tr, func() { e.Iterate(v) }), nil
	case pair{BackendTensor, AlgorithmACS}:
		a, err := tensor.NewACS(in, acs, d)
		if err != nil {
			return nil, err
		}
		return tensorEngine(a.Engine, tr, a.Iterate), nil
	case pair{BackendTensor, AlgorithmMMAS}:
		m, err := tensor.NewMMAS(in, mmas, d)
		if err != nil {
			return nil, err
		}
		return tensorEngine(m.Engine, tr, func() { m.Iterate(v) }), nil
	}
	return nil, fmt.Errorf("antgpu: unknown algorithm %v: %w", opts.Algorithm, ErrInvalidParams)
}
