package tensor

// Vectorised 2-opt in the tensor engine's idiom: instead of ACOTSP's
// first-improvement walk that interleaves a gain computation with an early
// exit on every candidate, each direction around a city runs as two flat
// passes over the (distance-sorted) candidate list — first a radius scan
// that finds the prefix still able to improve, then a branch-light gain
// scan over that prefix that evaluates every candidate move and keeps the
// argmax. The scans index flat rows of the int32 distance matrix and all
// gain arithmetic is exact int64, so the pass can never "improve" a tour
// into a worse one through rounding. The applied move is the best in the
// prefix (best-improvement) rather than the first — both drive the tour to
// a 2-opt-optimal fixed point over the same candidate neighbourhood.
//
// Each ant's pass mutates only its own tour row plus a position table and
// don't-look bits, so the pass shards by ant — with the scratch strictly
// per worker: a shared engine-level pos/dlb pair would be a data race and
// would corrupt every concurrent reversal.

type twoOptScratch struct {
	pos []int32
	dlb []bool
}

// LocalSearchTours applies the vectorised 2-opt to every ant's tour,
// sharded over the worker pool, updating the recorded lengths; the
// best-so-far folds in afterwards in ant-index order (reduceBest), so the
// outcome is bit-identical for any worker count.
func (e *Engine) LocalSearchTours() {
	if e.ls == nil {
		e.ls = e.mats.twoOptScratch(e.workers)
	}
	n := e.n
	e.forAnts(func(w, ant int) {
		tour := e.Tours[ant*n : (ant+1)*n]
		if l := e.twoOpt(tour, &e.ls[w]); l < e.Lengths[ant] {
			e.Lengths[ant] = l
		}
	})
	e.reduceBest()
}

// twoOpt improves one tour in place until no candidate move improves it,
// and returns the exact resulting length.
func (e *Engine) twoOpt(tour []int32, ls *twoOptScratch) int64 {
	n := e.n
	pos, dlb := ls.pos, ls.dlb
	for p, c := range tour {
		pos[c] = int32(p)
	}
	for i := range dlb {
		dlb[i] = false
	}

	improvement := true
	for improvement {
		improvement = false
		for c1 := int32(0); int(c1) < n; c1++ {
			if dlb[c1] {
				continue
			}
			if e.improveCity(tour, c1, ls) {
				improvement = true
			} else {
				dlb[c1] = true
			}
		}
	}

	l := int64(0)
	prev := int(tour[n-1])
	for _, c := range tour {
		l += int64(e.dist[prev*n+int(c)])
		prev = int(c)
	}
	return l
}

func (e *Engine) succ(tour []int32, c int32, ls *twoOptScratch) int32 {
	p := int(ls.pos[c]) + 1
	if p == e.n {
		p = 0
	}
	return tour[p]
}

func (e *Engine) pred(tour []int32, c int32, ls *twoOptScratch) int32 {
	p := int(ls.pos[c]) - 1
	if p < 0 {
		p = e.n - 1
	}
	return tour[p]
}

// improveCity runs the two-pass candidate scan around c1 in both tour
// directions and applies the best improving exchange found, if any.
func (e *Engine) improveCity(tour []int32, c1 int32, ls *twoOptScratch) bool {
	n, nn := e.n, e.nn
	list := e.nnList[int(c1)*nn : int(c1)*nn+nn]
	drow := e.dist[int(c1)*n : int(c1)*n+n]

	// Successor direction: break edges (c1, succ c1) and (c2, succ c2).
	s1 := e.succ(tour, c1, ls)
	radius := drow[s1]
	// Radius scan: the candidate list is distance-sorted, so the movable
	// candidates form a prefix.
	m := 0
	for m < nn && drow[list[m]] < radius {
		m++
	}
	// Gain scan over the prefix: evaluate every candidate, keep the argmax.
	bestH := -1
	bestG := int64(0)
	for h := 0; h < m; h++ {
		c2 := list[h]
		s2 := e.succ(tour, c2, ls)
		if s2 == c1 || c2 == s1 {
			continue // degenerate: shared edge
		}
		g := int64(radius) + int64(e.dist[int(c2)*n+int(s2)]) -
			int64(drow[c2]) - int64(e.dist[int(s1)*n+int(s2)])
		if g > bestG {
			bestG, bestH = g, h
		}
	}
	if bestH >= 0 {
		c2 := list[bestH]
		e.apply(tour, c1, s1, c2, e.succ(tour, c2, ls), ls)
		return true
	}

	// Predecessor direction: the same move type against the orientation.
	p1 := e.pred(tour, c1, ls)
	radius = drow[p1]
	m = 0
	for m < nn && drow[list[m]] < radius {
		m++
	}
	bestH = -1
	bestG = 0
	for h := 0; h < m; h++ {
		c2 := list[h]
		p2 := e.pred(tour, c2, ls)
		if p2 == c1 || p1 == c2 {
			continue
		}
		g := int64(radius) + int64(e.dist[int(p2)*n+int(c2)]) -
			int64(drow[c2]) - int64(e.dist[int(p1)*n+int(p2)])
		if g > bestG {
			bestG, bestH = g, h
		}
	}
	if bestH >= 0 {
		c2 := list[bestH]
		e.apply(tour, e.pred(tour, c2, ls), c2, p1, c1, ls)
		return true
	}
	return false
}

// apply performs the exchange removing edges (c1,s1), (c2,s2) and adding
// (c1,c2), (s1,s2) by reversing the shorter side of the broken cycle.
func (e *Engine) apply(tour []int32, c1, s1, c2, s2 int32, ls *twoOptScratch) {
	n := e.n
	pos, dlb := ls.pos, ls.dlb
	i := int(pos[s1])
	j := int(pos[c2])
	inner := j - i
	if inner < 0 {
		inner += n
	}
	inner++ // segment s1..c2 inclusive
	if inner <= n-inner {
		e.reverse(tour, i, inner, ls)
	} else {
		e.reverse(tour, int(pos[s2]), n-inner, ls)
	}
	dlb[c1] = false
	dlb[s1] = false
	dlb[c2] = false
	dlb[s2] = false
}

// reverse flips length tour positions starting at position i (cyclic).
// The two cursors wrap around the tour's ends by compare-and-reset, so
// the swap loop pays no division.
func (e *Engine) reverse(tour []int32, i, length int, ls *twoOptScratch) {
	n := e.n
	pos := ls.pos
	a := i
	b := i + length - 1
	if b >= n {
		b -= n
	}
	for k := 0; k < length/2; k++ {
		tour[a], tour[b] = tour[b], tour[a]
		pos[tour[a]] = int32(a)
		pos[tour[b]] = int32(b)
		a++
		if a == n {
			a = 0
		}
		b--
		if b < 0 {
			b = n - 1
		}
	}
}
