package tensor

import (
	"slices"
	"time"

	"antgpu/internal/aco"
	"antgpu/internal/rng"
)

// constructScratch is one worker's private construction state.
type constructScratch struct {
	mask []float32  // n tabu mask: 1 unvisited, 0 visited
	mw   []float32  // nn masked NN-list weights staged by the NN rule
	unv  []int32    // unvisited cities, ascending (full rule)
	cls  [4][]int32 // unv split into the four total accumulators' classes
}

func newConstructScratch(n, nn int) constructScratch {
	// One allocation holds unv and the four class lists, each in its own
	// capped window, so the appends of reset never spill into a neighbour.
	c := n/4 + n%4 // room for class 0's tail
	lists := make([]int32, n+4*c)
	sc := constructScratch{
		mask: make([]float32, n),
		mw:   make([]float32, nn),
		unv:  lists[:n:n],
	}
	for k := range sc.cls {
		lo := n + k*c
		sc.cls[k] = lists[lo : lo : lo+c]
	}
	return sc
}

// totalClass returns the total accumulator that city j feeds: j mod 4,
// except that the n mod 4 tail cities all go to class 0.
func totalClass(j, n int) int {
	if j < n&^3 {
		return j & 3
	}
	return 0
}

// reset marks every city unvisited.
func (sc *constructScratch) reset() {
	n := len(sc.mask)
	for i := range sc.mask {
		sc.mask[i] = 1
	}
	sc.unv = sc.unv[:n]
	for k := range sc.cls {
		sc.cls[k] = sc.cls[k][:0]
	}
	for j := range n {
		sc.unv[j] = int32(j)
		k := totalClass(j, n)
		sc.cls[k] = append(sc.cls[k], int32(j))
	}
}

// visit marks city c visited: it leaves the mask, the ascending list and
// its class list.
func (sc *constructScratch) visit(c int) {
	sc.mask[c] = 0
	sc.unv = removeSorted(sc.unv, int32(c))
	k := totalClass(c, len(sc.mask))
	sc.cls[k] = removeSorted(sc.cls[k], int32(c))
}

// total sums row over the unvisited cities: one accumulator per class
// list, so the four add chains pipeline, combined as (t0+t1)+(t2+t3).
// Each accumulator sees its cities in ascending order, exactly as a 4-way
// unrolled pass over the masked row feeds them, so the result is that
// pass's total bit for bit whenever the visited weights are finite.
func (sc *constructScratch) total(row []float32) float32 {
	c0, c1, c2, c3 := sc.cls[0], sc.cls[1], sc.cls[2], sc.cls[3]
	var t0, t1, t2, t3 float32
	k := min(len(c0), len(c1), len(c2), len(c3))
	for i, j := range c0[:k] {
		t0 += row[j]
		t1 += row[c1[i]]
		t2 += row[c2[i]]
		t3 += row[c3[i]]
	}
	for _, j := range c0[k:] {
		t0 += row[j]
	}
	for _, j := range c1[k:] {
		t1 += row[j]
	}
	for _, j := range c2[k:] {
		t2 += row[j]
	}
	for _, j := range c3[k:] {
		t3 += row[j]
	}
	return (t0 + t1) + (t2 + t3)
}

// removeSorted deletes c from an ascending list by an in-order copy.
func removeSorted(list []int32, c int32) []int32 {
	i, _ := slices.BinarySearch(list, c)
	copy(list[i:], list[i+1:])
	return list[:len(list)-1]
}

// ConstructTours builds tours for all m ants with the selected variant,
// drawing from the same per-ant random streams as the reference colony:
// rng.AntSeed(seed, iteration, ant), one Intn for the start city, one
// Float64 per step if and only if the step's probability mass is positive.
// Ants are independent given the iteration's frozen weight matrix, so they
// shard over the worker pool — each worker builds its contiguous ant range
// with its own scratch, and the best-so-far folds in afterwards in
// ant-index order (reduceBest), keeping results bit-identical to the
// serial loop for any worker count.
//
// The full rule walks only the unvisited cities. Each worker keeps them as
// an ascending list for the roulette scan and split into four class lists
// — city j in class j mod 4, the n mod 4 tail cities in class 0 — that
// feed four independent total accumulators, so the float adds pipeline
// instead of serialising on the add latency. The roulette scan then
// accumulates the cumulative sum along the ascending list until it
// crosses the draw, with the last positive city as the r == total
// fallback (aco.RouletteSelect semantics). A chosen city leaves both lists
// by an in-order copy. The NN rule stages masked weights from the
// pre-gathered wNN tensor, which its first construction gathers and every
// update refreshes, and scans them the same way, so its only indexed load
// is the tabu mask.
func (e *Engine) ConstructTours(v aco.Variant) {
	start := time.Now()
	if v == aco.NNListConstruction && e.wNN == nil {
		e.wNN = make([]float32, e.n*e.nn)
		e.refreshNN()
	}
	e.iteration++
	e.forAnts(func(w, ant int) {
		g := rng.FromState(rng.AntSeed(e.P.Seed, e.iteration, ant))
		switch v {
		case aco.NNListConstruction:
			e.constructAntNN(ant, &g, &e.cs[w])
		default:
			e.constructAntFull(ant, &g, &e.cs[w])
		}
	})
	e.reduceBest()
	e.span("construct", time.Since(start).Seconds())
}

// constructAntFull applies the random-proportional rule over the
// unvisited cities only. The paper's data-parallel form scores all n
// cities and zeroes the visited ones with a tabu multiply. The +0 terms
// that multiply produces leave a non-negative float sum unchanged, and
// every other add here sees the same operands in the same order, so for
// finite weights the tours are bit-identical to that form. A visited city
// with an infinite or NaN weight would turn the masked total into NaN
// (Inf·0); here it is simply absent, and selection stays proportional
// over the unvisited cities, as in the float64 colony.
func (e *Engine) constructAntFull(ant int, g *rng.LCG, sc *constructScratch) {
	n := e.n
	tour := e.Tours[ant*n : (ant+1)*n]
	sc.reset()

	cur := g.Intn(n)
	tour[0] = int32(cur)
	sc.visit(cur)
	length := int64(0)

	for step := 1; step < n; step++ {
		row := e.weight[cur*n : cur*n+n]
		total := sc.total(row)
		next := -1
		if total > 0 {
			// The draw resolves in float64 against float32 partial sums so
			// exact rows reproduce the colony's selection bit for bit.
			r := g.Float64() * float64(total)
			next = rouletteList(row, sc.unv, r)
		}
		if next < 0 {
			next = e.bestFeasible(cur, sc.mask)
		}
		tour[step] = int32(next)
		sc.visit(next)
		length += int64(e.dist[cur*n+next])
		cur = next
	}
	length += int64(e.dist[cur*n+int(tour[0])])
	e.Lengths[ant] = length
}

// constructAntNN restricts the probabilistic choice to the nearest-
// neighbour list, reading the pre-gathered wNN row sequentially;
// exhausting the list falls back to the best feasible city by weight.
func (e *Engine) constructAntNN(ant int, g *rng.LCG, sc *constructScratch) {
	n, nn := e.n, e.nn
	tour := e.Tours[ant*n : (ant+1)*n]
	mask := sc.mask
	for i := range mask {
		mask[i] = 1
	}

	cur := g.Intn(n)
	tour[0] = int32(cur)
	mask[cur] = 0
	length := int64(0)

	for step := 1; step < n; step++ {
		list := e.nnList[cur*nn : cur*nn+nn]
		wrow := e.wNN[cur*nn : cur*nn+nn]
		mw := sc.mw[:nn]
		var t0, t1 float32
		k := 0
		for ; k+1 < nn; k += 2 {
			w0, w1 := wrow[k]*mask[list[k]], wrow[k+1]*mask[list[k+1]]
			mw[k], mw[k+1] = w0, w1
			t0 += w0
			t1 += w1
		}
		if k < nn {
			w := wrow[k] * mask[list[k]]
			mw[k] = w
			t0 += w
		}
		total := t0 + t1

		next := -1
		if total > 0 {
			r := g.Float64() * float64(total)
			if k := rouletteMasked(mw, r); k >= 0 {
				next = int(list[k])
			}
		}
		if next < 0 {
			next = e.bestFeasible(cur, mask)
		}
		tour[step] = int32(next)
		mask[next] = 0
		length += int64(e.dist[cur*n+next])
		cur = next
	}
	length += int64(e.dist[cur*n+int(tour[0])])
	e.Lengths[ant] = length
}

// rouletteMasked resolves a roulette draw against the cumulative sum of an
// already-masked weight row (slot weights, zero where visited or
// zero-probability). Zero slots can never win, and a draw past the row's
// own total — the r == total float edge — settles on the last slot that
// carried probability. Returns the winning slot, or -1 when no slot
// carries any probability.
func rouletteMasked(mw []float32, r float64) int {
	last := -1
	acc := float32(0)
	for k, w := range mw {
		if w > 0 {
			last = k
			acc += w
			if float64(acc) >= r {
				return k
			}
		}
	}
	return last
}

// rouletteList is rouletteMasked over a gathered row: it scans the
// weights of the listed cities in list order and returns the winning
// city, or -1 when no listed city carries any probability.
func rouletteList(row []float32, list []int32, r float64) int {
	last := -1
	acc := float32(0)
	for _, j := range list {
		if w := row[j]; w > 0 {
			last = int(j)
			acc += w
			if float64(acc) >= r {
				return int(j)
			}
		}
	}
	return last
}

// bestFeasible returns the unvisited city with the highest weight from
// cur, using the mask-sink trick of the data-parallel kernels: visited
// lanes score exactly -1 while unvisited lanes keep their weight
// bit-identically (w·1 + 0.0), so the scan itself stays branch-free and
// the first strict maximum matches the colony's tie-break.
func (e *Engine) bestFeasible(cur int, mask []float32) int {
	n := e.n
	row := e.weight[cur*n : cur*n+n]
	best := -1
	bestV := float32(-1)
	for j := 0; j < n; j++ {
		mb := mask[j]
		if v := row[j]*mb + (mb - 1); v > bestV {
			best, bestV = j, v
		}
	}
	if best < 0 {
		panic("tensor: no feasible city (corrupt mask state)")
	}
	return best
}
