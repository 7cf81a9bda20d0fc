// Package core implements the paper's contribution: the GPU designs for
// both stages of the Ant System — tour construction and pheromone update —
// on the simulated CUDA devices of package cuda.
//
// Eight tour-construction versions (Table II) and five pheromone-update
// versions (Tables III and IV) are provided, matching the paper's §IV and
// §V-A:
//
//	Tour construction                     Pheromone update
//	1 baseline (task parallelism)         1 atomic + shared memory
//	2 + choice kernel                     2 atomic
//	3 + device RNG (no "CURAND")          3 instruction & thread reduction
//	4 + NN list                           4 scatter-to-gather + tiling
//	5 + shared-memory tabu                5 scatter-to-gather
//	6 + texture-memory randoms
//	7 data parallelism
//	8 data parallelism + texture
package core

import "fmt"

// TourVersion selects one of the paper's tour-construction implementations
// (Table II rows).
type TourVersion int

const (
	// TourBaseline is the naïve task-parallel kernel: one thread per ant,
	// heuristic information recomputed at every step, library-style RNG,
	// tabu list in global memory, divergent visited checks.
	TourBaseline TourVersion = iota + 1
	// TourChoiceKernel precomputes the choice matrix τ^α·η^β once per
	// iteration in a separate kernel.
	TourChoiceKernel
	// TourDeviceRNG replaces the library-style RNG with the register-
	// resident device LCG (the paper's "without CURAND").
	TourDeviceRNG
	// TourNNList restricts the probabilistic choice to the nn nearest
	// neighbours with fall-back-to-best.
	TourNNList
	// TourNNShared keeps the tabu list in shared memory (bitwise when the
	// byte layout does not fit, with the extra shift/mask overhead the
	// paper describes).
	TourNNShared
	// TourNNSharedTexture additionally pre-generates the per-step random
	// numbers in a separate kernel and fetches them through the texture
	// cache.
	TourNNSharedTexture
	// TourDataParallel is the paper's proposal: one block per ant, one
	// thread per city (tiled), tabu as per-thread register bits, stochastic
	// tile winners reduced in shared memory — no divergent visited checks.
	TourDataParallel
	// TourDataParallelTexture reads the choice matrix through the texture
	// cache.
	TourDataParallelTexture
)

// DefaultTourVersion is the paper's construction kernel for an n-city
// instance: the data-parallel kernel up to 500 cities, the NN-list kernel
// beyond, both reading through the texture cache.
func DefaultTourVersion(n int) TourVersion {
	if n <= 500 {
		return TourDataParallelTexture
	}
	return TourNNSharedTexture
}

// TourVersions lists all tour-construction versions in Table II order.
var TourVersions = []TourVersion{
	TourBaseline, TourChoiceKernel, TourDeviceRNG, TourNNList,
	TourNNShared, TourNNSharedTexture, TourDataParallel, TourDataParallelTexture,
}

func (v TourVersion) String() string {
	switch v {
	case TourBaseline:
		return "1. Baseline Version"
	case TourChoiceKernel:
		return "2. Choice Kernel"
	case TourDeviceRNG:
		return "3. Without CURAND"
	case TourNNList:
		return "4. NNList"
	case TourNNShared:
		return "5. NNList + Shared Memory"
	case TourNNSharedTexture:
		return "6. NNList + Shared&Texture Memory"
	case TourDataParallel:
		return "7. Increasing Data Parallelism"
	case TourDataParallelTexture:
		return "8. Data Parallelism + Texture Memory"
	default:
		return fmt.Sprintf("TourVersion(%d)", int(v))
	}
}

// UsesNNList reports whether the version constructs from the
// nearest-neighbour list.
func (v TourVersion) UsesNNList() bool {
	return v == TourNNList || v == TourNNShared || v == TourNNSharedTexture
}

// DataParallel reports whether the version uses the paper's block-per-ant
// data-parallel design.
func (v TourVersion) DataParallel() bool {
	return v == TourDataParallel || v == TourDataParallelTexture
}

// PherVersion selects one of the paper's pheromone-update implementations
// (Table III/IV rows).
type PherVersion int

const (
	// PherAtomicShared stages each ant's tour through shared memory and
	// deposits with atomic adds (the paper's best version).
	PherAtomicShared PherVersion = iota + 1
	// PherAtomic deposits with atomic adds reading tours directly from
	// global memory.
	PherAtomic
	// PherReduction is the symmetric "instruction & thread reduction"
	// scatter-to-gather: half the threads, each updating cell (i,j) and
	// mirroring to (j,i), with tour tiles staged in shared memory.
	PherReduction
	// PherScatterGatherTiled is scatter-to-gather with tour tiles staged in
	// shared memory (tile size θ).
	PherScatterGatherTiled
	// PherScatterGather is the plain scatter-to-gather transformation:
	// every cell's thread scans every ant's whole tour in global memory
	// (2·n² loads per thread).
	PherScatterGather
)

// PherVersions lists all pheromone-update versions in Table III order.
var PherVersions = []PherVersion{
	PherAtomicShared, PherAtomic, PherReduction,
	PherScatterGatherTiled, PherScatterGather,
}

func (v PherVersion) String() string {
	switch v {
	case PherAtomicShared:
		return "1. Atomic Ins. + Shared Memory"
	case PherAtomic:
		return "2. Atomic Ins."
	case PherReduction:
		return "3. Instruction & Thread Reduction"
	case PherScatterGatherTiled:
		return "4. Scatter to Gather + Tilling"
	case PherScatterGather:
		return "5. Scatter to Gather"
	default:
		return fmt.Sprintf("PherVersion(%d)", int(v))
	}
}
