package tensor

import (
	"slices"
	"sync"
	"weak"
)

// matrices is one engine's three n×n float32 matrices: τ, η^β and the
// roulette weights, which each pheromone update also uses as its deposit
// buffer Δ. Closed engines hand their set to the next engine of the same
// n, which rebuilds η^β and refills τ and the weights, so whatever the
// previous engine left there, a panicked update's deposits included, is
// overwritten before it is read.
type matrices struct {
	n                    int
	tau, etaBeta, weight []float32

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
// one likeliest still in cache), or allocates a set when no idle set of
// that n is left. A recycled set's τ, η^β and weights hold the previous
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
		return &matrices{
			n:       n,
			tau:     make([]float32, n*n),
			etaBeta: make([]float32, n*n),
			weight:  make([]float32, n*n),
		}
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
