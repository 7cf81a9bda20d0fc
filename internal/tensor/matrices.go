package tensor

import (
	"slices"
	"sync"
	"weak"
)

// matrices is one engine's four n×n float32 matrices: τ, η^β, the roulette
// weights and the deposit buffer Δ. Closed engines hand their set to the
// next engine of the same n, which rebuilds η^β and refills τ and the
// weights. Δ is zero between updates: a deposit scatter sets dirty and the
// sweep that re-zeroes Δ clears it, so only an update that panicked in
// between leaves a set dirty, and only a dirty set's Δ needs clearing.
type matrices struct {
	n                           int
	tau, etaBeta, weight, delta []float32
	dirty                       bool

	// scratch is the construction scratch of the engines that held the
	// set. Every construction resets what it reads, so the next engine of
	// this n reuses it instead of allocating its own.
	scratch []constructScratch
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
// one likeliest still in cache) with Δ zero, clearing it only when the
// set is dirty. It allocates a zeroed set when no idle set of that n is
// left. A recycled set's τ, η^β and weights hold the previous engine's
// values.
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
		return &matrices{
			n:       n,
			tau:     make([]float32, n*n),
			etaBeta: make([]float32, n*n),
			weight:  make([]float32, n*n),
			delta:   make([]float32, n*n),
		}
	}
	if s.dirty {
		clear(s.delta)
		s.dirty = false
	}
	return s
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

// putMatrices hands a closed engine's set to the next engine of its n. The
// caller must drop every reference to the set's slices.
func putMatrices(s *matrices) {
	idle.mu.Lock()
	idle.sets = append(idle.sets, weak.Make(s))
	idle.mu.Unlock()
}
