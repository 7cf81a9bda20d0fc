package cuda

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Device is one simulated GPU: its hardware and timing model, whose
// fields it promotes, plus the hooks and the fault and allocation state of
// the simulation running on it. Two presets are provided, TeslaC1060 and
// TeslaM2050, matching the paper's evaluation hardware.
type Device struct {
	Spec

	// Observer, when non-nil, receives every completed launch on this
	// device in issue order (the profiler hook; see internal/trace).
	Observer LaunchObserver

	// Metrics, when non-nil, also receives every completed launch — the
	// metrics layer's hardware-counter hook (see internal/metrics.HW). It
	// is independent of Observer so profiling and metrics collection can
	// run together, and it survives engine rebuilds and Device.Reset: the
	// engines manage Observer, the solve facade manages Metrics.
	Metrics LaunchObserver

	// Log, when non-nil, also receives every completed launch — the
	// structured-logging hook (see internal/obslog). Like Metrics it is a
	// facade-managed slot, independent of the engine-managed Observer.
	Log LaunchObserver

	// Faults, when non-nil, injects deterministic faults into launches and
	// allocations on this device (see fault.go).
	Faults *FaultPlan

	// Fault and allocation-accounting state (fault.go).
	mu         sync.Mutex
	allocBytes int64
	sticky     error
	eccTargets []eccTarget

	// streamHint caches the high-water per-lane stream length observed on
	// this device's launches (rounded up to a power of two), so later
	// launches size fresh lane streams to fit. Purely a host-side capacity
	// hint: it never affects meters, and Clone deliberately does not copy
	// it.
	streamHint atomic.Int64
}

// Spec is the hardware and timing model of a simulated GPU. The fields
// mirror Table I of the paper plus the handful of microarchitectural
// parameters the timing model needs (latencies, service rates, atomic
// behaviour).
type Spec struct {
	Name string

	// Compute resources (paper Table I).
	SMs        int     // streaming multiprocessors
	CoresPerSM int     // scalar cores (SPs) per SM
	ClockHz    float64 // shader clock

	// Thread limits (paper Table I).
	MaxThreadsPerSM    int
	MaxThreadsPerBlock int
	MaxBlocksPerSM     int
	WarpSize           int

	// SRAM per SM (paper Table I).
	RegistersPerSM int // 32-bit registers
	SharedMemPerSM int // bytes configured as shared memory
	HasL1          bool

	// Global memory (paper Table I).
	GlobalMemBytes   int64
	BandwidthBytesPS float64 // peak DRAM bandwidth, bytes/second
	// PerSMBandwidthBPS caps the DRAM bandwidth a single SM can consume;
	// launches that occupy few SMs cannot use the whole chip's bandwidth.
	PerSMBandwidthBPS float64

	// Microarchitectural model parameters (not in Table I; representative
	// of the respective generations, used by timing.go).
	MemLatencyCycles     float64 // global memory round-trip latency
	SharedLatencyCycles  float64 // shared memory access latency
	TextureLatencyCycles float64 // texture cache hit latency
	TxServiceCycles      float64 // per-transaction service cost in a warp's chain
	BarrierCycles        float64 // per-__syncthreads stall in a block's chain
	// DPArithFactor is the issue-cost multiplier of double-precision
	// arithmetic relative to single precision (8 on GT200, whose DP unit
	// runs at 1/8 rate; 2 on Fermi). Kernels that naively port the
	// sequential code's double-precision math (the paper's baseline
	// version) pay it.
	DPArithFactor float64
	// GlobalIssueCycles is the extra SM issue occupancy of one global
	// memory (or atomic) warp instruction beyond a plain issue slot: the
	// load-store pipeline of these parts cannot accept global accesses
	// back-to-back the way it accepts shared-memory accesses. This is what
	// makes staging tours in shared memory pay off (pheromone version 4 vs
	// 5) even when a kernel is not bandwidth-bound.
	GlobalIssueCycles float64
	SegmentBytes      int // coalescing transaction granularity
	TextureLineBytes  int // texture cache line size
	TextureCacheBytes int // per-SM texture cache capacity

	// Atomic behaviour. CC 1.x parts (C1060) have no native float32
	// atomicAdd: the paper notes it must be emulated (compare-and-swap
	// loops), which is why the CPU beats the C1060 pheromone kernel at
	// small sizes (Figure 5).
	NativeFloatAtomics   bool
	AtomicLatencyCycles  float64 // base cost of one atomic RMW
	AtomicSerialCycles   float64 // extra cycles per conflicting op on one address
	FloatAtomicEmulation float64 // cost multiplier for emulated float atomics

	// KernelLaunchSeconds is the fixed host-side launch overhead.
	KernelLaunchSeconds float64
}

// noteStreamHighWater records the deepest per-lane stream a finished block
// saw, rounded up to the next power of two so the hint converges in a few
// launches instead of creeping.
func (d *Device) noteStreamHighWater(n int) {
	if n <= minStreamCap {
		return
	}
	c := int64(minStreamCap)
	for c < int64(n) {
		c <<= 1
	}
	for {
		cur := d.streamHint.Load()
		if c <= cur {
			return
		}
		if d.streamHint.CompareAndSwap(cur, c) {
			return
		}
	}
}

// TeslaC1060 returns the GT200-class device of the paper (CUDA compute
// capability 1.3, mid-2008).
func TeslaC1060() *Device {
	return &Device{Spec: Spec{
		Name:       "Tesla C1060",
		SMs:        30,
		CoresPerSM: 8,
		ClockHz:    1.296e9,

		MaxThreadsPerSM:    1024,
		MaxThreadsPerBlock: 512,
		MaxBlocksPerSM:     8,
		WarpSize:           32,

		RegistersPerSM: 16 * 1024,
		SharedMemPerSM: 16 * 1024,
		HasL1:          false,

		GlobalMemBytes:    4 << 30,
		BandwidthBytesPS:  102e9,
		PerSMBandwidthBPS: 6e9,

		MemLatencyCycles:     550,
		SharedLatencyCycles:  2,
		TextureLatencyCycles: 35,
		TxServiceCycles:      6,
		BarrierCycles:        80,
		GlobalIssueCycles:    8,
		DPArithFactor:        8,
		SegmentBytes:         32,
		TextureLineBytes:     32,
		TextureCacheBytes:    8 * 1024,

		NativeFloatAtomics:   false,
		AtomicLatencyCycles:  350,
		AtomicSerialCycles:   2,
		FloatAtomicEmulation: 4,

		KernelLaunchSeconds: 40e-6,
	}}
}

// TeslaM2050 returns the Fermi-class device of the paper (compute
// capability 2.0, late 2010). The paper's Table I labels it M2050/S2050.
func TeslaM2050() *Device {
	return &Device{Spec: Spec{
		Name:       "Tesla M2050",
		SMs:        14,
		CoresPerSM: 32,
		ClockHz:    1.147e9,

		MaxThreadsPerSM:    1536,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     8,
		WarpSize:           32,

		RegistersPerSM: 32 * 1024,
		SharedMemPerSM: 48 * 1024,
		HasL1:          true,

		GlobalMemBytes:    3 << 30,
		BandwidthBytesPS:  144e9,
		PerSMBandwidthBPS: 12e9,

		MemLatencyCycles:     400,
		SharedLatencyCycles:  2,
		TextureLatencyCycles: 30,
		TxServiceCycles:      3,
		BarrierCycles:        40,
		GlobalIssueCycles:    4,
		DPArithFactor:        2,
		SegmentBytes:         32,
		TextureLineBytes:     32,
		TextureCacheBytes:    12 * 1024,

		NativeFloatAtomics:   true,
		AtomicLatencyCycles:  250,
		AtomicSerialCycles:   1,
		FloatAtomicEmulation: 1,

		KernelLaunchSeconds: 20e-6,
	}}
}

// Clone returns a private copy of the device model: the same hardware and
// timing parameters, fresh fault/allocation/ECC state, its own Clone of the
// fault plan (counters reset, so the clone replays the plan's schedule from
// the start) and no observer. Solves that must not mutate a caller-owned
// device — every antgpu.Solve, and every worker of a concurrent batch —
// run on a clone, so one *Device value can be shared as a read-only model
// by any number of concurrent solves.
func (d *Device) Clone() *Device {
	return &Device{Spec: d.Spec, Faults: d.Faults.Clone()}
}

// TotalCores returns the total scalar core count of the device.
func (d *Device) TotalCores() int { return d.SMs * d.CoresPerSM }

// SharedMemPerBlock returns the maximum shared memory one block may use.
// On the simulated parts this equals the per-SM shared memory.
func (d *Device) SharedMemPerBlock() int { return d.SharedMemPerSM }

// IssueCyclesPerWarpInstr returns the cycles one SM needs to issue a single
// warp-wide instruction: warpSize/coresPerSM (4 on GT200, 1 on Fermi).
func (d *Device) IssueCyclesPerWarpInstr() float64 {
	return float64(d.WarpSize) / float64(d.CoresPerSM)
}

func (d *Device) String() string {
	return fmt.Sprintf("%s (%d SMs x %d cores @ %.0f MHz, %.0f GB/s)",
		d.Name, d.SMs, d.CoresPerSM, d.ClockHz/1e6, d.BandwidthBytesPS/1e9)
}

// Occupancy describes how many blocks and warps of a given launch can be
// resident on one SM simultaneously, and which resource limits it.
type Occupancy struct {
	BlocksPerSM   int
	WarpsPerSM    int
	ThreadsPerSM  int
	LimitedBy     string  // "threads", "blocks", "shared", or "registers"
	Fraction      float64 // warps resident / max warps
	WarpsPerBlock int
}

// OccupancyOf computes the occupancy of a launch configuration on the
// device, following the CUDA occupancy calculator: the per-SM block count is
// the minimum allowed by the thread, block, shared-memory and register
// limits.
func (d *Device) OccupancyOf(cfg *LaunchConfig) Occupancy {
	threads := cfg.Threads()
	warpsPerBlock := (threads + d.WarpSize - 1) / d.WarpSize

	limit := func(avail, per int) int {
		if per <= 0 {
			return d.MaxBlocksPerSM
		}
		return avail / per
	}

	byThreads := limit(d.MaxThreadsPerSM, threads)
	byBlocks := d.MaxBlocksPerSM
	shared := cfg.SharedBytes
	byShared := d.MaxBlocksPerSM
	if shared > 0 {
		byShared = limit(d.SharedMemPerSM, shared)
	}
	byRegs := limit(d.RegistersPerSM, cfg.regs()*threads)

	occ := Occupancy{WarpsPerBlock: warpsPerBlock}
	occ.BlocksPerSM = byThreads
	occ.LimitedBy = "threads"
	if byBlocks < occ.BlocksPerSM {
		occ.BlocksPerSM = byBlocks
		occ.LimitedBy = "blocks"
	}
	if byShared < occ.BlocksPerSM {
		occ.BlocksPerSM = byShared
		occ.LimitedBy = "shared"
	}
	if byRegs < occ.BlocksPerSM {
		occ.BlocksPerSM = byRegs
		occ.LimitedBy = "registers"
	}
	if occ.BlocksPerSM < 1 {
		// A launch that fits no full block still runs one block at a time
		// (the hardware would refuse; we degrade gracefully and let the
		// timing model punish it).
		occ.BlocksPerSM = 1
	}
	occ.WarpsPerSM = occ.BlocksPerSM * warpsPerBlock
	maxWarps := d.MaxThreadsPerSM / d.WarpSize
	if occ.WarpsPerSM > maxWarps {
		occ.WarpsPerSM = maxWarps
	}
	occ.ThreadsPerSM = occ.BlocksPerSM * threads
	occ.Fraction = float64(occ.WarpsPerSM) / float64(maxWarps)
	return occ
}
