package tsp

import (
	"errors"
	"fmt"
)

// MaxExactDistF32 is the largest integer distance float32 represents
// exactly. Above 2^24 the float32 mantissa runs out of bits and distinct
// int32 distances collapse onto the same float32 value: the conversion is
// still monotonic (no single edge compares out of order), but edges stop
// being distinguishable and float32 tour-length accumulation can rank two
// tours in the wrong order. Large-coordinate ATT/EUC_2D instances (MaxCoord
// is 1e8) can legitimately exceed this limit.
const MaxExactDistF32 = 1 << 24

// ErrF32Precision reports that an instance's distance matrix contains
// entries above MaxExactDistF32, so the float32 data path the device
// kernels consume would silently lose precision. Callers should fall back
// to the float64 CPU colony (BackendCPU) for such instances.
var ErrF32Precision = errors.New("distance exceeds exact float32 range (2^24)")

// Derived holds the read-only data every solver derives from an instance
// before its first iteration: the distance matrix converted to the float32
// the device kernels consume, the nearest-neighbour lists, and the greedy
// nearest-neighbour tour length C^nn that sets the initial pheromone level.
// Computing it is the Θ(n²) fixed cost of starting a solve (at most
// Θ(n² log nn) for the NN lists); a batch of solves over the same instance
// shares one Derived (see internal/sched).
//
// A Derived is immutable after ComputeDerived returns and safe to share
// across concurrent solves; consumers must treat the slices as read-only
// and copy them before mutating (the GPU engines copy them into private
// device buffers anyway).
type Derived struct {
	N  int // number of cities
	NN int // effective nearest-neighbour list width (clamped to n-1)

	// List is the row-major N x NN nearest-neighbour list (Instance.NNList).
	List []int32
	// DistF32 is the N*N distance matrix converted to float32, the form the
	// simulated device kernels upload.
	DistF32 []float32
	// CNN is the length of the greedy nearest-neighbour tour from city 0,
	// used for τ0 = m / C^nn (and the variants' τ0 formulas).
	CNN int64
}

// EffectiveNN clamps a requested nearest-neighbour list width to the
// instance's maximum (n-1), the same clamp every colony and engine applies.
func (in *Instance) EffectiveNN(nn int) int {
	if nn > in.n-1 {
		return in.n - 1
	}
	return nn
}

// CheckDistF32 reports whether the instance's distances all convert to
// float32 exactly, returning an error wrapping ErrF32Precision naming the
// first offending edge otherwise. Engines that upload int32 distances into
// float32 device buffers call this before converting.
func (in *Instance) CheckDistF32() error {
	n := in.n
	for i, v := range in.matrix {
		if v > MaxExactDistF32 {
			return fmt.Errorf("tsp: instance %q: d(%d,%d) = %d: %w",
				in.Name, i/n, i%n, v, ErrF32Precision)
		}
	}
	return nil
}

// ComputeDerived computes the shared derived data for the instance at the
// given nearest-neighbour width. The result depends only on the instance
// content and nn, so two instances with equal ContentHash produce
// byte-identical Derived values.
//
// Distances above MaxExactDistF32 cannot be converted to DistF32 without
// losing precision; ComputeDerived detects them during conversion and
// returns an error wrapping ErrF32Precision instead of silently collapsing
// edges (such instances remain solvable by the float64 CPU colony, which
// does not consume Derived.DistF32).
func (in *Instance) ComputeDerived(nn int) (*Derived, error) {
	n := in.n
	nn = in.EffectiveNN(nn)
	d := &Derived{N: n, NN: nn}
	d.List = in.NNList(nn)
	d.DistF32 = make([]float32, n*n)
	for i, v := range in.matrix {
		if v > MaxExactDistF32 {
			return nil, fmt.Errorf("tsp: instance %q: d(%d,%d) = %d: %w",
				in.Name, i/n, i%n, v, ErrF32Precision)
		}
		d.DistF32[i] = float32(v)
	}
	d.CNN = in.TourLength(in.NearestNeighbourTour(0))
	return d, nil
}

// ContentHash returns a 64-bit FNV-1a hash of the instance's solver-visible
// content: the edge weight type, the dimension and the full distance
// matrix. Two instances with equal hashes are (up to 64-bit collisions,
// which the derived-data cache tolerates by construction — equal content is
// what it needs, and unequal content with equal hashes only means sharing
// is keyed conservatively by the caller) interchangeable for solving: the
// name, comment and raw coordinates do not affect tours or lengths beyond
// the matrix they produced.
func (in *Instance) ContentHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1 := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	word32 := func(v uint32) {
		byte1(byte(v))
		byte1(byte(v >> 8))
		byte1(byte(v >> 16))
		byte1(byte(v >> 24))
	}
	for i := 0; i < len(in.Type); i++ {
		byte1(in.Type[i])
	}
	word32(uint32(in.n))
	for _, v := range in.matrix {
		word32(uint32(v))
	}
	return h
}
