// Package cuda implements a deterministic, functional SIMT (Single
// Instruction Multiple Thread) execution simulator modelled on the CUDA
// programming and machine model of the NVIDIA Tesla generation GPUs used in
// Cecilia et al., "Parallelization Strategies for Ant Colony Optimisation on
// GPUs" (2011).
//
// Kernels are ordinary Go functions that receive a *Block and execute real
// computation on real device buffers, so the simulator is functional: kernel
// results are actual results, not estimates. Every interaction with the
// memory system (global loads and stores, shared memory, texture fetches,
// atomics) and every arithmetic charge goes through the simulator, which
// meters warp instruction issues, coalesced 128-byte memory transactions,
// shared-memory bank conflicts, texture cache hits and misses, and atomic
// serialisation. A roofline-style timing model (see timing.go) converts the
// meters into deterministic simulated kernel times for a given DeviceSpec.
//
// The package intentionally mirrors CUDA vocabulary — grids, blocks, warps,
// lanes, shared memory, __syncthreads — so the ACO kernels in internal/core
// read like the kernels described in the paper.
package cuda

import "fmt"

// Dim3 is a CUDA-style three-dimensional extent used for grid and block
// dimensions. Unset components should be 1, as in CUDA's dim3.
type Dim3 struct {
	X, Y, Z int
}

// D1 returns a one-dimensional Dim3 (y = z = 1).
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 returns a two-dimensional Dim3 (z = 1).
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total number of elements spanned by the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

// Linear converts coordinates within the extent to a linear index using
// CUDA's ordering (x fastest).
func (d Dim3) Linear(x, y, z int) int {
	return (z*d.Y+y)*d.X + x
}

// Coords converts a linear index back into coordinates within the extent.
func (d Dim3) Coords(i int) (x, y, z int) {
	x = i % d.X
	i /= d.X
	y = i % d.Y
	z = i / d.Y
	return
}

func (d Dim3) String() string {
	return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z)
}

// LaunchConfig describes a kernel launch: the grid and block geometry plus
// the per-thread resource usage the occupancy calculator needs, host-side
// execution controls, and the deterministic block-sampling policy used to
// bound simulation cost for very large kernels.
type LaunchConfig struct {
	// Grid is the number of thread blocks in each dimension.
	Grid Dim3
	// Block is the number of threads per block in each dimension.
	Block Dim3

	// SharedBytes is the shared memory required per block, in bytes. It
	// participates in the occupancy calculation. Kernels allocate their
	// shared arrays dynamically via Block.SharedF32 and friends; if
	// SharedBytes is zero the simulator charges the dynamically allocated
	// amount instead.
	SharedBytes int

	// RegsPerThread is the register count per thread used for occupancy.
	// Zero selects DefaultRegsPerThread.
	RegsPerThread int

	// SampleStride executes only every SampleStride-th block (blocks with
	// linear index ≡ 0 mod stride) and scales all meters by the stride,
	// SMARTS-style. Zero or one executes every block. Sampled launches
	// produce exact-in-expectation meters but incomplete functional output;
	// use them for timing studies only.
	SampleStride int

	// WorkScale extrapolates a kernel that did only part of each block's
	// work, such as every k-th ant or a prefix of the construction steps:
	// above one, Launch scales every meter but WarpsExecuted by it (the
	// same warps do proportionally more work) before it prices the launch,
	// so the result, the fault checks and every observer see the
	// extrapolated launch. Zero or one leaves the meters as measured.
	WorkScale float64

	// SampleBudget, when positive and SampleStride is zero, picks the
	// smallest stride such that the predicted number of executed lane
	// operations stays at or below the budget. The prediction uses
	// LaneOpsPerBlockHint when set, otherwise the block's thread count.
	SampleBudget int64

	// LaneOpsPerBlockHint is an optional estimate of lane operations per
	// block, used only by SampleBudget stride selection.
	LaneOpsPerBlockHint int64

	// DependentMemory declares that the kernel's global accesses form
	// dependent chains (load → branch → load), so every global load
	// instruction exposes the DRAM latency (divided by the warps resident
	// per SM, which cover each other). Without it, latency is charged once
	// per Run phase — the independent-streams assumption appropriate for
	// tiled and element-wise kernels.
	DependentMemory bool

	// LatencyOverlap is the memory-level parallelism assumed within one
	// warp for the latency bound of the timing model: how many independent
	// outstanding memory accesses a warp sustains, i.e. how much of its
	// dependent chain overlaps. 1 (the default when zero) means fully
	// dependent accesses; streaming kernels whose accesses are independent
	// may declare a larger value.
	LatencyOverlap float64

	// SerialBlocks executes the blocks sequentially in ascending linear
	// order on the host instead of across worker goroutines. Kernels whose
	// cross-block writes are order-sensitive — concurrent float atomic adds
	// round differently under different interleavings — declare it so the
	// functional device state is bit-reproducible run to run. It only
	// affects host-side execution, never the simulated timing.
	SerialBlocks bool
}

// DefaultRegsPerThread is assumed when LaunchConfig.RegsPerThread is zero.
// Sixteen 32-bit registers per thread is representative of the small ACO
// kernels in this package.
const DefaultRegsPerThread = 16

// Threads returns the number of threads per block.
func (c *LaunchConfig) Threads() int { return c.Block.Count() }

// Blocks returns the number of blocks in the grid.
func (c *LaunchConfig) Blocks() int { return c.Grid.Count() }

// regs returns the effective per-thread register count.
func (c *LaunchConfig) regs() int {
	if c.RegsPerThread > 0 {
		return c.RegsPerThread
	}
	return DefaultRegsPerThread
}

// Validate checks the launch configuration against the device limits.
func (c *LaunchConfig) Validate(dev *Device) error {
	if c.Grid.X < 1 || c.Grid.Y < 1 || c.Grid.Z < 1 {
		return fmt.Errorf("cuda: invalid grid %v (all dimensions must be >= 1)", c.Grid)
	}
	if c.Block.X < 1 || c.Block.Y < 1 || c.Block.Z < 1 {
		return fmt.Errorf("cuda: invalid block %v (all dimensions must be >= 1)", c.Block)
	}
	if t := c.Block.Count(); t > dev.MaxThreadsPerBlock {
		return fmt.Errorf("cuda: block of %d threads exceeds device limit %d (%s)",
			t, dev.MaxThreadsPerBlock, dev.Name)
	}
	if c.SharedBytes > dev.SharedMemPerBlock() {
		return fmt.Errorf("cuda: %d bytes of shared memory per block exceeds device limit %d (%s)",
			c.SharedBytes, dev.SharedMemPerBlock(), dev.Name)
	}
	if c.SampleStride < 0 {
		return fmt.Errorf("cuda: negative sample stride %d", c.SampleStride)
	}
	return nil
}
