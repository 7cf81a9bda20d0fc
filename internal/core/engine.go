package core

import (
	"fmt"
	"math"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/metrics"
	"antgpu/internal/rng"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Instruction charge constants for arithmetic the simulator cannot see.
// Charges are in warp-instruction units per thread.
const (
	chargePow     = 10 // powf via the special function unit
	chargeDiv     = 6  // floating-point division / reciprocal
	chargeMulAdd  = 1  // multiply-add
	chargeCompare = 1  // compare + select
	chargeBitTabu = 4  // bitwise tabu: shift, mask, modulo/division pair
	chargeIndex   = 2  // address arithmetic for an indexed access
	chargeBranch  = 2  // divergent-branch re-issue per split
	// chargePowDP is one double-precision pow in single-precision issue
	// units, before the device's DPArithFactor. The baseline version ports
	// the sequential code's double-precision heuristic computation
	// directly, which is one of its deficiencies on CC 1.x hardware.
	chargePowDP = 25
	// chargeScanEntry is one tour-entry probe of the scatter-to-gather
	// kernels: two address computations, two compares, a predicated add.
	chargeScanEntry = 6
)

// Engine owns the device-side state of one GPU Ant System colony: the
// instance data, pheromone and choice matrices, tours, tabu lists and RNG
// states, all as device buffers; and it launches the kernel versions of the
// paper over them.
type Engine struct {
	Dev *cuda.Device
	In  *tsp.Instance
	P   aco.Params

	m, n, nn int
	tourPad  int // padded tour row length (n+1 rounded up to tile size)

	// Device buffers.
	dist    *cuda.F32 // n*n distances (float)
	pher    *cuda.F32 // n*n pheromone
	choice  *cuda.F32 // n*n choice info
	nnList  *cuda.I32 // n*nn nearest neighbours
	tours   *cuda.I32 // m*tourPad tours, row per ant, padded with tour[0]
	lengths *cuda.F32 // m tour lengths
	posBuf  *cuda.I32 // m*n tour positions (allocated by the 2-opt kernel)
	// depositDev holds a single uploaded tour for the atomic-free deposit
	// kernel shared by MMAS, EAS and ASrank (lazily allocated).
	depositDev *cuda.I32
	tabu       *cuda.I32 // m*n global-memory tabu (task-based versions)
	randoms    *cuda.F32 // m*n pre-generated randoms (texture versions)
	libRNG     *cuda.U64 // library-style RNG states, one per ant

	iteration uint64
	tau0      float64
	cnn       int64 // greedy nearest-neighbour tour length C^nn

	// SampleBudget bounds the lane operations functionally executed per
	// kernel launch; larger kernels are block-sampled (timing stays exact
	// in expectation, functional output becomes partial). Zero disables
	// sampling: every block runs.
	SampleBudget int64

	// Vector selects the warp-vector fast path (cuda.Block.RunWarps with
	// analytic per-warp metering) for the kernels that have been ported;
	// the per-thread scalar path remains in every kernel as the reference
	// implementation. The two paths produce byte-identical buffers and
	// identical meters (see vector_equiv_test.go), so Vector changes only
	// host-side simulation speed and defaults to on.
	Vector bool

	// ForceSerial forces SerialBlocks on every launch regardless of the
	// kernel's own setting. The equivalence tests use it to pin the
	// cross-block execution order while comparing the two paths.
	ForceSerial bool

	// Tracer, when non-nil, records every kernel launch and algorithm
	// phase on a simulated timeline (set it with SetTracer so the device
	// observer hook is installed too).
	Tracer *trace.Collector

	// lastBest and lastMean are the best and mean exact tour length of
	// the latest ReadBest scan.
	lastBest int64
	lastMean float64

	theta       int // pheromone tour-tile length θ (and deposit block size)
	dataThreads int // data-parallel block size override (0 = auto)

	// Best-so-far across ReadBest calls.
	bestLen  int64
	bestTour []int32
}

// PherTileTheta is the default θ, the shared-memory tour tile length of
// the tiled scatter-to-gather pheromone kernels (also the deposit kernels'
// block size).
const PherTileTheta = 256

// EngineOptions tune the design parameters the ablation studies sweep.
type EngineOptions struct {
	// TileTheta is the pheromone tour-tile length θ (default 256). Must be
	// a multiple of the warp size within the device's block limit.
	TileTheta int
	// DataBlockThreads overrides the data-parallel construction kernel's
	// block size (default: one thread per city up to 256, then tiling).
	// Must be a power of two between 32 and the device's block limit.
	DataBlockThreads int
	// Derived, when non-nil, supplies precomputed instance-derived data
	// (NN lists, greedy NN tour length) instead of recomputing it per
	// engine — the shared-cache path of batch solving. It must match the
	// instance and the effective NN width and hold the NN lists; the
	// engine copies them into its private device buffer for the NN-list
	// kernels and 2-opt, so the shared value stays read-only. The
	// float32 distance buffer is always converted from the instance's
	// matrix, with or without Derived.
	Derived *tsp.Derived
}

// NewEngine uploads the instance to the device and initialises pheromone to
// τ0 = m / C^nn, mirroring the CPU colony.
func NewEngine(dev *cuda.Device, in *tsp.Instance, p aco.Params) (*Engine, error) {
	return NewEngineWithOptions(dev, in, p, EngineOptions{})
}

// NewEngineWithOptions is NewEngine with explicit design parameters.
func NewEngineWithOptions(dev *cuda.Device, in *tsp.Instance, p aco.Params, opt EngineOptions) (*Engine, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	n := in.N()
	e := &Engine{
		Dev: dev, In: in, P: p,
		m:           p.AntCount(n),
		n:           n,
		nn:          p.NN,
		theta:       opt.TileTheta,
		dataThreads: opt.DataBlockThreads,
		Vector:      true,
	}
	if e.theta == 0 {
		e.theta = PherTileTheta
	}
	if e.theta%dev.WarpSize != 0 || e.theta < dev.WarpSize || e.theta > dev.MaxThreadsPerBlock {
		return nil, fmt.Errorf("core: tile theta %d invalid for %s (warp multiple up to %d)",
			e.theta, dev.Name, dev.MaxThreadsPerBlock)
	}
	if dt := e.dataThreads; dt != 0 {
		if dt < dev.WarpSize || dt > dev.MaxThreadsPerBlock || dt&(dt-1) != 0 {
			return nil, fmt.Errorf("core: data block size %d invalid for %s (power of two in [%d, %d])",
				dt, dev.Name, dev.WarpSize, dev.MaxThreadsPerBlock)
		}
	}
	if e.nn > n-1 {
		e.nn = n - 1
	}
	if d := opt.Derived; d != nil && (d.N != n || d.NN != e.nn || d.List == nil) {
		return nil, fmt.Errorf("core: derived data (n=%d, nn=%d, lists %t) does not match engine (n=%d, nn=%d, lists)",
			d.N, d.NN, d.List != nil, n, e.nn)
	}
	// Pad the tour rows to a multiple of θ as the paper does, "applying
	// padding in the ants tour array to avoid warp divergence".
	e.tourPad = ((n + 1 + e.theta - 1) / e.theta) * e.theta

	// Device allocations are charged against GlobalMemBytes and can fail
	// (genuinely or by injection); a partial engine frees what it got.
	var allocErr error
	mallocF32 := func(name string, sz int) *cuda.F32 {
		if allocErr != nil {
			return nil
		}
		var b *cuda.F32
		b, allocErr = dev.MallocF32(name, sz)
		return b
	}
	mallocI32 := func(name string, sz int) *cuda.I32 {
		if allocErr != nil {
			return nil
		}
		var b *cuda.I32
		b, allocErr = dev.MallocI32(name, sz)
		return b
	}
	e.dist = mallocF32("dist", n*n)
	e.pher = mallocF32("pheromone", n*n)
	e.choice = mallocF32("choice", n*n)
	e.nnList = mallocI32("nnlist", n*e.nn)
	e.tours = mallocI32("tours", e.m*e.tourPad)
	e.lengths = mallocF32("lengths", e.m)
	e.tabu = mallocI32("tabu", e.m*n)
	e.randoms = mallocF32("randoms", e.m*n)
	if allocErr == nil {
		e.libRNG, allocErr = dev.MallocU64("librng", e.m*rng.LibStateWords)
	}
	if allocErr != nil {
		e.Free()
		return nil, fmt.Errorf("core: engine allocation: %w", allocErr)
	}
	// The device consumes float32 distances; refuse instances whose edges
	// exceed the exact-float32 range rather than silently collapsing them
	// (tsp.ErrF32Precision), on the derived and the standalone path alike.
	if err := in.ConvertDistF32(e.dist.Data()); err != nil {
		e.Free()
		return nil, err
	}
	d := opt.Derived
	if d == nil {
		d = in.Derive(e.nn, true)
	}
	copy(e.nnList.Data(), d.List)
	e.cnn = d.CNN
	rng.SeedLibStates(e.libRNG.Data(), p.Seed^0xC0FFEE, e.m)

	e.tau0 = aco.ASTau0(e.m, e.cnn)
	e.pher.Fill(float32(e.tau0))
	e.bestLen = math.MaxInt64
	return e, nil
}

// Free returns every device buffer of the engine to the device's
// allocation accounting (the analogue of cudaFree). The host-side slices
// remain readable — results captured from the engine stay valid — but the
// engine must not launch kernels afterwards. Safe to call more than once
// and on partially constructed engines.
func (e *Engine) Free() {
	e.dist.Free()
	e.pher.Free()
	e.choice.Free()
	e.nnList.Free()
	e.tours.Free()
	e.lengths.Free()
	e.posBuf.Free()
	e.depositDev.Free()
	e.tabu.Free()
	e.randoms.Free()
	e.libRNG.Free()
}

// Ants returns m.
func (e *Engine) Ants() int { return e.m }

// N returns the number of cities.
func (e *Engine) N() int { return e.n }

// Tau0 returns the initial pheromone level.
func (e *Engine) Tau0() float64 { return e.tau0 }

// Pheromone exposes the device pheromone matrix (n*n) for host readback.
func (e *Engine) Pheromone() []float32 { return e.pher.Data() }

// ChoiceData exposes the device choice matrix (n*n).
func (e *Engine) ChoiceData() []float32 { return e.choice.Data() }

// Tour returns ant k's tour (n cities, without the padded wrap entry).
func (e *Engine) Tour(k int) []int32 {
	return e.tours.Data()[k*e.tourPad : k*e.tourPad+e.n]
}

// Lengths exposes the device tour-length buffer.
func (e *Engine) Lengths() []float32 { return e.lengths.Data() }

// SetPheromone overwrites the device pheromone matrix (used by equivalence
// tests and by hybrid host/device loops).
func (e *Engine) SetPheromone(p []float64) error {
	if len(p) != e.n*e.n {
		return fmt.Errorf("core: pheromone size %d, want %d", len(p), e.n*e.n)
	}
	d := e.pher.Data()
	for i, v := range p {
		d[i] = float32(v)
	}
	return nil
}

// StageResult aggregates the kernel launches of one algorithm stage (tour
// construction or pheromone update) for one iteration.
type StageResult struct {
	Kernels []*cuda.LaunchResult
}

// Seconds returns the total simulated stage time.
func (s *StageResult) Seconds() float64 {
	t := 0.0
	for _, k := range s.Kernels {
		t += k.Seconds
	}
	return t
}

// Millis returns the total simulated stage time in milliseconds, the unit
// of the paper's tables.
func (s *StageResult) Millis() float64 { return s.Seconds() * 1e3 }

// Sampled reports whether any kernel in the stage was block-sampled (its
// functional output is then partial and only the meters are whole-launch).
func (s *StageResult) Sampled() bool {
	for _, k := range s.Kernels {
		if k.Stride > 1 {
			return true
		}
	}
	return false
}

func (s *StageResult) add(r *cuda.LaunchResult) { s.Kernels = append(s.Kernels, r) }

func (s *StageResult) String() string {
	out := fmt.Sprintf("stage %.4f ms:", s.Millis())
	for _, k := range s.Kernels {
		out += fmt.Sprintf(" [%s %.4f ms]", k.Name, k.Millis())
	}
	return out
}

// SetTracer attaches (or, with nil, detaches) a profiling collector: the
// engine wraps its phases in spans and the device reports every launch to
// the collector, laying kernels out on one simulated timeline. Engines
// sharing a device also share its observer hook; attach one tracer per
// device at a time.
func (e *Engine) SetTracer(tr *trace.Collector) {
	e.Tracer = tr
	if tr == nil {
		e.Dev.Observer = nil
		return
	}
	e.Dev.Observer = tr
}

// RecordConvergence publishes the latest iteration to conv: the best and
// mean tour length of the latest ReadBest scan, the best-so-far and the
// statistics of the device pheromone matrix. Every algorithm embedding the
// engine shares it. A nil conv is a no-op, so the O(n²) matrix statistics
// run only while a recorder is attached.
func (e *Engine) RecordConvergence(conv *metrics.Convergence) {
	if conv == nil {
		return
	}
	conv.RecordIteration(float64(e.lastBest), e.lastMean, e.bestLen)
	conv.RecordPheromone32(e.pher.Data(), e.n)
}

// heuristicF32 mirrors aco.Colony's η guard for float32 device math.
func heuristicF32(d float32) float32 { return 1.0 / (d + 0.1) }

// launch wraps cuda.Launch applying the engine's sampling budget.
func (e *Engine) launch(cfg cuda.LaunchConfig, name string, opsPerBlock int64, k cuda.Kernel) (*cuda.LaunchResult, error) {
	if e.SampleBudget > 0 && cfg.SampleStride == 0 {
		cfg.SampleBudget = e.SampleBudget
		cfg.LaneOpsPerBlockHint = opsPerBlock
	}
	if e.ForceSerial {
		cfg.SerialBlocks = true
	}
	return cuda.Launch(e.Dev, cfg, name, k)
}
