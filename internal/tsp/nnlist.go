package tsp

import "slices"

// NNList returns, for each city, its nn nearest neighbours ordered by
// increasing distance (ties broken by city index for determinism). The
// result is a row-major n x nn matrix of city indices. The paper's versions
// (4)–(6) restrict the probabilistic choice to such a list with nn = 30.
//
// Each row is a bounded selection over (distance, index) keys, the order
// the list is defined by: a max-heap holds the nn smallest keys seen so
// far, so most candidates are rejected by one comparison with its root,
// and only the nn survivors are sorted. That is Θ(n²) for a fixed nn and no
// worse than sorting every row as nn approaches n−1.
func (in *Instance) NNList(nn int) []int32 {
	n := in.n
	if nn > n-1 {
		nn = n - 1
	}
	list := make([]int32, n*nn)
	if nn == 0 {
		return list
	}
	// A key packs (distance, index) into one int64 whose integer order is
	// their lexicographic order: the index fits the low 32 bits.
	heap := make([]int64, 0, nn)
	for i := 0; i < n; i++ {
		heap = heap[:0]
		for j, d := range in.matrix[i*n : (i+1)*n] {
			if j == i {
				continue
			}
			k := int64(d)<<32 | int64(j)
			if len(heap) < nn {
				heap = append(heap, k)
				if len(heap) == nn {
					for p := nn/2 - 1; p >= 0; p-- {
						siftDown(heap, p)
					}
				}
			} else if k < heap[0] {
				heap[0] = k
				siftDown(heap, 0)
			}
		}
		slices.Sort(heap)
		out := list[i*nn : (i+1)*nn]
		for r, k := range heap {
			out[r] = int32(k)
		}
	}
	return list
}

// siftDown restores the max-heap order of h below position p.
func siftDown(h []int64, p int) {
	for {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[p] >= h[c] {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// NearestNeighbourTour builds a greedy nearest-neighbour tour starting at
// city start, used to compute the initial pheromone level τ0 = m / C^nn as
// recommended by Dorigo & Stützle.
func (in *Instance) NearestNeighbourTour(start int) []int32 {
	n := in.n
	tour := make([]int32, 0, n)
	visited := make([]bool, n)
	cur := start
	tour = append(tour, int32(cur))
	visited[cur] = true
	for len(tour) < n {
		best := -1
		var bestD int32
		row := in.matrix[cur*n:]
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			if best < 0 || row[j] < bestD {
				best, bestD = j, row[j]
			}
		}
		cur = best
		visited[cur] = true
		tour = append(tour, int32(cur))
	}
	return tour
}
