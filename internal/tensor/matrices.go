package tensor

import (
	"math"
	"slices"
	"sync"
	"weak"

	"antgpu/internal/tsp"
)

// matrices is one engine's two n×n float32 matrices, τ and the roulette
// weights, which each pheromone update also uses as its deposit buffer Δ,
// together with every other n-sized buffer of a job. Closed engines hand
// their set to the next engine of the same n, which refills τ and the
// weights, so whatever the previous engine left there, a panicked update's
// deposits included, is overwritten before it is read.
type matrices struct {
	n           int
	tau, weight []float32

	// The per-job buffers of the engines that held the set. Each engine
	// overwrites what it reads of them (the tours and lengths are zeroed
	// when taken), so the next engine of this n reuses them instead of
	// allocating its own; a buffer grows only when an engine needs more
	// ants, workers or NN width than any before it.
	tours   []int32
	lengths []int64
	wNN     []float32
	touched []touchedCell
	scratch []constructScratch
	ls      []twoOptScratch
}

// idle lists the sets of closed engines. It holds them through weak
// pointers, so a garbage collection reclaims every set no engine took in
// the meantime and the list needs no cap: like a sync.Pool, it only saves
// allocations while engines of one size follow each other.
var idle struct {
	mu   sync.Mutex
	sets []weak.Pointer[matrices]
}

// takeMatrices returns the most recently closed engine's idle n×n set (the
// one likeliest still in cache), or allocates a set when no idle set of
// that n is left. A recycled set's τ and weights hold the previous
// engine's values.
func takeMatrices(n int) *matrices {
	idle.mu.Lock()
	var s *matrices
	for i := len(idle.sets) - 1; i >= 0; i-- {
		if c := idle.sets[i].Value(); c != nil && c.n == n {
			s = c
			idle.sets = slices.Delete(idle.sets, i, i+1)
			break
		}
	}
	idle.sets = slices.DeleteFunc(idle.sets, func(wp weak.Pointer[matrices]) bool { return wp.Value() == nil })
	idle.mu.Unlock()
	if s == nil {
		return &matrices{n: n, tau: make([]float32, n*n), weight: make([]float32, n*n)}
	}
	return s
}

// grow returns buf resliced to length k, reallocated only when its
// capacity is short.
func grow[T any](buf []T, k int) []T {
	return slices.Grow(buf[:0], k)[:k]
}

// toursFor returns zeroed tour rows and lengths for m ants.
func (s *matrices) toursFor(m int) ([]int32, []int64) {
	s.tours, s.lengths = grow(s.tours, m*s.n), grow(s.lengths, m)
	clear(s.tours)
	clear(s.lengths)
	return s.tours, s.lengths
}

// nnWeights returns room for the n×nn gathered NN-list weights.
func (s *matrices) nnWeights(nn int) []float32 {
	s.wNN = grow(s.wNN, s.n*nn)
	return s.wNN
}

// touchedCells returns an empty touched list with room for k cells.
func (s *matrices) touchedCells(k int) []touchedCell {
	s.touched = slices.Grow(s.touched[:0], k)
	return s.touched
}

// constructScratch returns k construction scratch sets with NN width nn,
// allocating only those the set does not hold yet.
func (s *matrices) constructScratch(k, nn int) []constructScratch {
	for len(s.scratch) < k {
		s.scratch = append(s.scratch, newConstructScratch(s.n, nn))
	}
	for i := range s.scratch[:k] {
		if len(s.scratch[i].mw) != nn {
			s.scratch[i].mw = make([]float32, nn)
		}
	}
	return s.scratch[:k]
}

// twoOptScratch returns k 2-opt scratch sets, allocating only those the
// set does not hold yet.
func (s *matrices) twoOptScratch(k int) []twoOptScratch {
	for len(s.ls) < k {
		s.ls = append(s.ls, twoOptScratch{pos: make([]int32, s.n), dlb: make([]bool, s.n)})
	}
	return s.ls[:k]
}

// putMatrices hands a closed engine's set to the next engine of its n. The
// caller must drop every reference to the set's slices.
func putMatrices(s *matrices) {
	idle.mu.Lock()
	idle.sets = append(idle.sets, weak.Make(s))
	idle.mu.Unlock()
}

// etaTable is η^β of one (instance, β), n×n with a zero diagonal, read by
// every live engine solving that instance with that β. The key is the
// instance's identity, not its content: two equal uploads fill a table
// each, and no hash has to be trusted.
type etaTable struct {
	n    int
	in   weak.Pointer[tsp.Instance] // stays comparable after the instance dies
	beta uint64                     // math.Float64bits(β)

	// holders counts the engines that hold the table, under etas.mu. A
	// table with none may be refilled for another key of its n.
	holders int
	// fill runs once per key: the first taker fills v, and concurrent
	// takers of the same key wait until it is done. A refill resets it
	// under etas.mu, when no holder can be inside it.
	fill sync.Once
	v    []float32
}

// etas lists the η^β tables. Like idle, it holds them through weak
// pointers: live engines keep their table alive, and a table outlives its
// last engine only until the next garbage collection, so the memory held
// is bounded by the engines alive and needs no byte budget.
var etas struct {
	mu     sync.Mutex
	tables []weak.Pointer[etaTable]
}

// takeEta returns the η^β table of (in, β), filled, and counts the caller
// as a holder until releaseEta. It shares the table another engine holds
// or left for the same key, else refills a table of in's n that no engine
// holds, else allocates one.
func takeEta(in *tsp.Instance, beta float64) *etaTable {
	key, bits, n := weak.Make(in), math.Float64bits(beta), in.N()
	etas.mu.Lock()
	var t, free *etaTable
	for i := len(etas.tables) - 1; i >= 0 && t == nil; i-- {
		c := etas.tables[i].Value()
		switch {
		case c == nil:
		case c.in == key && c.beta == bits:
			t = c
		case free == nil && c.n == n && c.holders == 0:
			free = c
		}
	}
	switch {
	case t != nil:
	case free != nil:
		t = free
		t.in, t.beta, t.fill = key, bits, sync.Once{}
	default:
		t = &etaTable{n: n, in: key, beta: bits, v: make([]float32, n*n)}
		etas.tables = append(etas.tables, weak.Make(t))
	}
	t.holders++
	etas.tables = slices.DeleteFunc(etas.tables, func(wp weak.Pointer[etaTable]) bool { return wp.Value() == nil })
	etas.mu.Unlock()
	t.fill.Do(func() { fillEtaBeta(t.v, in.Matrix(), n, beta) })
	return t
}

// releaseEta drops one holder of t.
func releaseEta(t *etaTable) {
	etas.mu.Lock()
	t.holders--
	etas.mu.Unlock()
}

// fillEtaBeta writes η^β = (1/(d+0.1))^β of the n×n distance matrix dist
// into eb, in float64 rounded to float32, in index order with the β case
// chosen once. Each cell is computed from its own distance: every
// instance's matrix is symmetric by construction (tsp.New and
// tsp.NewExplicit mirror the upper triangle), so the table is too, without
// a mirrored write down a column. The diagonal is zeroed so a city can
// never be its own roulette winner — the colony zeroes the same cells in
// its choice matrix.
func fillEtaBeta(eb []float32, dist []int32, n int, beta float64) {
	eb = eb[:len(dist)]
	if beta == 2 {
		for k, d := range dist {
			x := 1.0 / (float64(d) + 0.1)
			eb[k] = float32(x * x)
		}
	} else {
		pow := powOf(beta)
		for k, d := range dist {
			eb[k] = float32(pow(1.0 / (float64(d) + 0.1)))
		}
	}
	for i := 0; i < n; i++ {
		eb[i*n+i] = 0
	}
}
