// Package tsp provides the Travelling Salesman Problem substrate of the
// reproduction: TSPLIB file parsing and writing, the TSPLIB distance
// functions, full distance matrices, nearest-neighbour lists, tour
// utilities, and a deterministic synthetic generator standing in for the
// TSPLIB benchmark files used by the paper (att48, kroC100, a280, pcb442,
// d657, pr1002, pr2392).
package tsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidInstance is wrapped by every instance-validation failure, so
// callers can match the whole class with errors.Is.
var ErrInvalidInstance = errors.New("invalid instance")

// MaxDimension caps the instance size: the solvers allocate Θ(n²) memory,
// so an absurd DIMENSION in an untrusted TSPLIB file must fail cleanly
// instead of exhausting the host.
const MaxDimension = 100000

// MaxCoord caps coordinate magnitude. With |X|, |Y| <= 1e8 every supported
// distance function stays far below MaxInt32 (EUC_2D at most ~2.9e8), so a
// crafted file cannot overflow the int32 distance matrix into negative
// values (the conversion result for an out-of-range float is
// implementation-dependent). TSPLIB benchmark coordinates are below 1e7.
const MaxCoord = 1e8

// invalidf builds an instance-validation error wrapping ErrInvalidInstance.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("tsp: %w: %s", ErrInvalidInstance, fmt.Sprintf(format, args...))
}

// EdgeWeightType enumerates the TSPLIB distance functions supported.
type EdgeWeightType string

const (
	// Euc2D is TSPLIB EUC_2D: Euclidean distance rounded to nearest int.
	Euc2D EdgeWeightType = "EUC_2D"
	// Ceil2D is TSPLIB CEIL_2D: Euclidean distance rounded up.
	Ceil2D EdgeWeightType = "CEIL_2D"
	// Att is TSPLIB ATT: the pseudo-Euclidean distance of att48/att532.
	Att EdgeWeightType = "ATT"
	// Geo is TSPLIB GEO: geographical distance from DDD.MM coordinates.
	Geo EdgeWeightType = "GEO"
	// Explicit is TSPLIB EXPLICIT: distances from an edge weight matrix.
	Explicit EdgeWeightType = "EXPLICIT"
)

// Point is a city location.
type Point struct {
	X, Y float64
}

// Instance is a symmetric TSP instance.
type Instance struct {
	Name    string
	Comment string
	Type    EdgeWeightType
	Coords  []Point // empty for Explicit instances
	matrix  []int32 // full n*n distance matrix
	n       int
	hash    uint64 // ContentHash, computed while the matrix is built
}

// N returns the number of cities.
func (in *Instance) N() int { return in.n }

// Dist returns the distance between cities i and j.
func (in *Instance) Dist(i, j int) int32 { return in.matrix[i*in.n+j] }

// Matrix returns the full row-major n*n distance matrix. Callers must not
// modify it.
func (in *Instance) Matrix() []int32 { return in.matrix }

// New builds an instance from coordinates using the given distance function.
func New(name string, typ EdgeWeightType, coords []Point) (*Instance, error) {
	n := len(coords)
	if n < 3 {
		return nil, invalidf("instance %q has %d cities, need at least 3", name, n)
	}
	if n > MaxDimension {
		return nil, invalidf("instance %q has %d cities, cap is %d", name, n, MaxDimension)
	}
	for i, p := range coords {
		if !isFinite(p.X) || !isFinite(p.Y) {
			return nil, invalidf("instance %q: coordinate %d is not finite (%g, %g)", name, i, p.X, p.Y)
		}
		if math.Abs(p.X) > MaxCoord || math.Abs(p.Y) > MaxCoord {
			return nil, invalidf("instance %q: coordinate %d magnitude exceeds %g (%g, %g)",
				name, i, float64(MaxCoord), p.X, p.Y)
		}
	}
	dist, err := distanceFunc(typ)
	if err != nil {
		return nil, fmt.Errorf("tsp: instance %q: %w", name, err)
	}
	in := &Instance{Name: name, Type: typ, Coords: coords, n: n}
	in.matrix = make([]int32, n*n)
	h := hashHeader(typ, n)
	for i := 0; i < n; i++ {
		row := in.matrix[i*n:]
		for j := i + 1; j < n; j++ {
			d := dist(coords[i], coords[j])
			row[j] = d
			in.matrix[j*n+i] = d
			h = (h ^ uint64(uint32(d))) * fnvPrime64
		}
	}
	in.hash = h
	return in, nil
}

// NewExplicit builds an instance from a full distance matrix. The matrix is
// symmetrised from its upper triangle.
func NewExplicit(name string, n int, matrix []int32) (*Instance, error) {
	if n < 3 {
		return nil, invalidf("instance %q has %d cities, need at least 3", name, n)
	}
	if n > MaxDimension {
		return nil, invalidf("instance %q has %d cities, cap is %d", name, n, MaxDimension)
	}
	if len(matrix) != n*n {
		return nil, invalidf("instance %q: matrix has %d entries, want %d", name, len(matrix), n*n)
	}
	m := make([]int32, n*n)
	copy(m, matrix)
	h := hashHeader(Explicit, n)
	for i := 0; i < n; i++ {
		m[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := m[i*n+j]
			if d < 0 {
				return nil, invalidf("instance %q: negative distance %d between %d and %d",
					name, d, i, j)
			}
			m[j*n+i] = d
			h = (h ^ uint64(uint32(d))) * fnvPrime64
		}
	}
	return &Instance{Name: name, Type: Explicit, matrix: m, n: n, hash: h}, nil
}

// distanceFunc returns the TSPLIB distance function for a weight type.
func distanceFunc(typ EdgeWeightType) (func(a, b Point) int32, error) {
	switch typ {
	case Euc2D:
		return DistEuc2D, nil
	case Ceil2D:
		return DistCeil2D, nil
	case Att:
		return DistAtt, nil
	case Geo:
		return DistGeo, nil
	default:
		return nil, fmt.Errorf("unsupported edge weight type %q", typ)
	}
}

// DistEuc2D is the TSPLIB EUC_2D distance: round(sqrt(dx^2+dy^2)).
func DistEuc2D(a, b Point) int32 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return int32(math.Sqrt(dx*dx+dy*dy) + 0.5)
}

// DistCeil2D is the TSPLIB CEIL_2D distance: ceil(sqrt(dx^2+dy^2)).
func DistCeil2D(a, b Point) int32 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return int32(math.Ceil(math.Sqrt(dx*dx + dy*dy)))
}

// DistAtt is the TSPLIB ATT pseudo-Euclidean distance used by att48.
func DistAtt(a, b Point) int32 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	r := math.Sqrt((dx*dx + dy*dy) / 10.0)
	t := int32(r + 0.5)
	if float64(t) < r {
		return t + 1
	}
	return t
}

// DistGeo is the TSPLIB GEO geographical distance. Coordinates are in
// DDD.MM (degrees.minutes) format.
func DistGeo(a, b Point) int32 {
	const rrr = 6378.388
	lat1, lon1 := geoRad(a.X), geoRad(a.Y)
	lat2, lon2 := geoRad(b.X), geoRad(b.Y)
	q1 := math.Cos(lon1 - lon2)
	q2 := math.Cos(lat1 - lat2)
	q3 := math.Cos(lat1 + lat2)
	// Rounding can push the cosine a hair outside [-1, 1], where Acos
	// returns NaN; clamp to the domain.
	q := 0.5 * ((1.0+q1)*q2 - (1.0-q1)*q3)
	if q > 1 {
		q = 1
	} else if q < -1 {
		q = -1
	}
	return int32(rrr*math.Acos(q) + 1.0)
}

func geoRad(x float64) float64 {
	deg := math.Trunc(x)
	min := x - deg
	return math.Pi * (deg + 5.0*min/3.0) / 180.0
}

// TourLength returns the length of the closed tour visiting the cities in
// order (returning from the last city to the first).
func (in *Instance) TourLength(tour []int32) int64 {
	if len(tour) == 0 {
		return 0
	}
	var sum int64
	for i := 0; i < len(tour)-1; i++ {
		sum += int64(in.Dist(int(tour[i]), int(tour[i+1])))
	}
	sum += int64(in.Dist(int(tour[len(tour)-1]), int(tour[0])))
	return sum
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the structural invariants every solver relies on: a sane
// dimension, a full symmetric matrix with non-negative finite distances,
// and finite coordinates. Instances built through New/NewExplicit/Parse
// satisfy it by construction; Solve re-checks so a zero or corrupted
// Instance fails with a typed error instead of a panic deep in a kernel.
func (in *Instance) Validate() error {
	if in == nil {
		return invalidf("nil instance")
	}
	if in.n < 3 {
		return invalidf("instance %q has %d cities, need at least 3", in.Name, in.n)
	}
	if in.n > MaxDimension {
		return invalidf("instance %q has %d cities, cap is %d", in.Name, in.n, MaxDimension)
	}
	if len(in.matrix) != in.n*in.n {
		return invalidf("instance %q: matrix has %d entries, want %d", in.Name, len(in.matrix), in.n*in.n)
	}
	if len(in.Coords) != 0 && len(in.Coords) != in.n {
		return invalidf("instance %q: %d coordinates for %d cities", in.Name, len(in.Coords), in.n)
	}
	for i, p := range in.Coords {
		if !isFinite(p.X) || !isFinite(p.Y) {
			return invalidf("instance %q: coordinate %d is not finite (%g, %g)", in.Name, i, p.X, p.Y)
		}
	}
	for i := 0; i < in.n; i++ {
		if d := in.matrix[i*in.n+i]; d != 0 {
			return invalidf("instance %q: self-distance %d at city %d", in.Name, d, i)
		}
		for j := i + 1; j < in.n; j++ {
			if d := in.matrix[i*in.n+j]; d < 0 {
				return invalidf("instance %q: negative distance %d between %d and %d", in.Name, d, i, j)
			}
		}
	}
	return nil
}

// ValidTour reports whether tour is a permutation of 0..n-1.
func (in *Instance) ValidTour(tour []int32) error {
	if len(tour) != in.n {
		return fmt.Errorf("tsp: tour has %d cities, want %d", len(tour), in.n)
	}
	seen := make([]bool, in.n)
	for pos, c := range tour {
		if c < 0 || int(c) >= in.n {
			return fmt.Errorf("tsp: tour position %d holds invalid city %d", pos, c)
		}
		if seen[c] {
			return fmt.Errorf("tsp: city %d visited twice", c)
		}
		seen[c] = true
	}
	return nil
}
