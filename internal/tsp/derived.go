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
// before its first iteration: the greedy nearest-neighbour tour length
// C^nn that sets the initial pheromone level and, for the solves that read
// them, the nearest-neighbour lists. Computing it is the Θ(n²) fixed cost
// of starting a solve (at most Θ(n² log nn) with the NN lists), while
// holding it takes Θ(n·nn) bytes with the lists and a few words without; a
// batch of solves over the same instance shares one Derived (see
// internal/sched). The distances themselves stay in the instance: engines
// that need another form of them (the GPU engine's float32 device buffer)
// convert Instance.Matrix into their own memory.
//
// A Derived is immutable once computed and safe to share across
// concurrent solves; consumers must treat the slices as read-only and copy
// them before mutating (the GPU engines copy them into private device
// buffers anyway). WithLists adds the lists to a copy, never in place.
type Derived struct {
	N  int // number of cities
	NN int // effective nearest-neighbour list width (clamped to n-1)

	// List is the row-major N x NN nearest-neighbour list (Instance.NNList),
	// or nil when the Derived was computed without lists (Derive). Only the
	// NN-list construction rules, ACS, 2-opt and the GPU engine read it.
	List []int32
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

// errF32 reports the matrix entry at flat index i, distance v, as beyond
// the exact-float32 range.
func (in *Instance) errF32(i int, v int32) error {
	return fmt.Errorf("tsp: instance %q: d(%d,%d) = %d: %w",
		in.Name, i/in.n, i%in.n, v, ErrF32Precision)
}

// CheckDistF32 reports whether the instance's distances all convert to
// float32 exactly, returning an error wrapping ErrF32Precision naming the
// first offending edge otherwise. The island runtime calls it once before
// any island builds an engine.
func (in *Instance) CheckDistF32() error {
	for i, v := range in.matrix {
		if v > MaxExactDistF32 {
			return in.errF32(i, v)
		}
	}
	return nil
}

// ConvertDistF32 writes the n*n distance matrix into dst as float32, the
// form the simulated device kernels read, in one pass that also enforces
// MaxExactDistF32: it stops at the first distance above the limit and
// returns an error wrapping ErrF32Precision naming that edge, leaving dst
// partly written.
func (in *Instance) ConvertDistF32(dst []float32) error {
	for i, v := range in.matrix {
		if v > MaxExactDistF32 {
			return in.errF32(i, v)
		}
		dst[i] = float32(v)
	}
	return nil
}

// ComputeDerived computes the shared derived data for the instance at the
// given nearest-neighbour width, lists included: Derive(nn, true). The
// result depends only on the instance content and nn, so two instances
// with equal ContentHash produce byte-identical Derived values. It reads no
// distance as float32, so it accepts every valid instance and the error is
// always nil; the float32 exactness limit is enforced where a float32 copy
// is made (ConvertDistF32).
func (in *Instance) ComputeDerived(nn int) (*Derived, error) {
	return in.Derive(nn, true), nil
}

// Derive computes the derived data at the nearest-neighbour width nn
// (clamped as EffectiveNN does), with the NN lists only when lists is set.
// C^nn is the same either way: the greedy tour walks the lists when it
// has them and scans the unvisited cities otherwise.
func (in *Instance) Derive(nn int, lists bool) *Derived {
	d := &Derived{N: in.n, NN: in.EffectiveNN(nn)}
	if lists {
		d.List = in.NNList(d.NN)
	}
	d.CNN = in.TourLength(in.greedyTour(0, d.List, d.NN))
	return d
}

// WithLists returns d with the NN lists of its instance in attached: d
// itself when it has them, otherwise a copy, so that every holder of d
// keeps an unchanged value.
func (d *Derived) WithLists(in *Instance) *Derived {
	if d.List != nil {
		return d
	}
	c := *d
	c.List = in.NNList(d.NN)
	return &c
}

// FNV-1a parameters of ContentHash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashHeader starts a content hash with the edge weight type, byte by
// byte, and the dimension; New and NewExplicit then fold in each
// upper-triangle distance as one 32-bit word while they fill the matrix.
func hashHeader(typ EdgeWeightType, n int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(typ); i++ {
		h = (h ^ uint64(typ[i])) * fnvPrime64
	}
	return (h ^ uint64(uint32(n))) * fnvPrime64
}

// ContentHash returns a 64-bit FNV-1a hash of the instance's solver-visible
// content: the edge weight type, the dimension and the upper triangle of
// the distance matrix (which fixes the whole symmetric matrix), one
// multiply per 32-bit distance. It is computed once while New or
// NewExplicit builds the matrix, so ContentHash itself does O(1) work. Two
// instances with equal hashes are (up to 64-bit collisions) interchangeable
// for solving: the name, comment and raw coordinates do not affect tours or
// lengths beyond the matrix they produced.
func (in *Instance) ContentHash() uint64 { return in.hash }
