package tensor

import (
	"slices"

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
// its class list. at is c's index in the ascending list, or -1 to search
// for it.
func (sc *constructScratch) visit(c, at int) {
	sc.mask[c] = 0
	if at < 0 {
		at, _ = slices.BinarySearch(sc.unv, int32(c))
	}
	sc.unv = deleteAt(sc.unv, at)
	k := totalClass(c, len(sc.mask))
	sc.cls[k] = deleteAt(sc.cls[k], indexOf(sc.cls[k], int32(c)))
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

// indexOf returns the index of c in an ascending list that holds it. The
// binary search keeps c in list[lo:lo+n] and moves lo by arithmetic on
// the sign of c − list[mid] instead of a branch, so no step can be
// mispredicted (city indices are far below 2³¹, so the difference cannot
// overflow).
func indexOf(list []int32, c int32) int {
	lo, n := 0, len(list)
	for n > 1 {
		half := n >> 1
		lo += half &^ int((c-list[lo+half])>>31)
		n -= half
	}
	return lo
}

// deleteAt deletes list[i] by an in-order copy, keeping the list ascending.
func deleteAt(list []int32, i int) []int32 {
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
// serial loop for any worker count. On the full rule a worker builds its
// ants two at a time in lockstep (constructPairFull), and an odd last ant
// alone.
//
// The full rule walks only the unvisited cities. Each worker keeps them as
// an ascending list for the roulette scan and split into four class lists
// — city j in class j mod 4, the n mod 4 tail cities in class 0 — that
// feed four independent total accumulators, so the float adds pipeline
// instead of serialising on the add latency. The roulette scan then
// accumulates the cumulative sum along the ascending list until it
// crosses the draw, with the last positive city as the r == total
// fallback (aco.RouletteSelect semantics), and returns the winner's index
// in that list. A chosen city leaves both lists by an in-order copy, the
// ascending list at that index and its class list where a binary search
// finds it. The NN rule stages masked weights from the
// pre-gathered wNN tensor, which its first construction gathers and every
// update refreshes, and scans them the same way, so its only indexed load
// is the tabu mask.
func (e *Engine) ConstructTours(v aco.Variant) {
	if v == aco.NNListConstruction && e.wNN == nil {
		e.wNN = e.mats.nnWeights(e.nn)
		e.refreshNN()
	}
	e.iteration++
	if v == aco.NNListConstruction {
		e.forAnts(func(w, ant int) {
			g := rng.FromState(rng.AntSeed(e.P.Seed, e.iteration, ant))
			e.constructAntNN(ant, &g, &e.cs[w])
		})
	} else {
		e.pool.run(func(w int) {
			lo, hi := shard(e.m, e.workers, w)
			ant := lo
			for ; ant+1 < hi; ant += 2 {
				a, b := e.newWalk(ant, &e.cs[w]), e.newWalk(ant+1, &e.cs2[w])
				e.constructPairFull(&a, &b)
			}
			if ant < hi {
				a := e.newWalk(ant, &e.cs[w])
				e.constructAntFull(&a)
			}
		})
	}
	e.reduceBest()
}

// fullWalk is one ant's full-rule construction in progress: its tour,
// random stream and scratch, the current city and the length so far.
type fullWalk struct {
	ant    int
	tour   []int32
	g      rng.LCG
	sc     *constructScratch
	cur    int
	length int64
	row    []float32 // the current city's weight row
}

// newWalk starts ant's construction: it draws the start city and visits
// it.
func (e *Engine) newWalk(ant int, sc *constructScratch) fullWalk {
	n := e.n
	w := fullWalk{ant: ant, tour: e.Tours[ant*n : (ant+1)*n],
		g: rng.FromState(rng.AntSeed(e.P.Seed, e.iteration, ant)), sc: sc}
	sc.reset()
	w.cur = w.g.Intn(n)
	w.tour[0] = int32(w.cur)
	sc.visit(w.cur, w.cur) // the full list holds city j at index j
	return w
}

// draw totals the current row over the unvisited cities and, when the
// total is positive, draws the roulette target r (ok reports whether it
// did).
func (w *fullWalk) draw(e *Engine) (r float64, ok bool) {
	n := e.n
	w.row = e.weight[w.cur*n : w.cur*n+n]
	total := w.sc.total(w.row)
	if !(total > 0) {
		return 0, false
	}
	// The draw resolves in float64 against float32 partial sums so exact
	// rows reproduce the colony's selection bit for bit.
	return w.g.Float64() * float64(total), true
}

// step moves the ant to the city at index at of its unvisited list, or
// to the best feasible city when at < 0.
func (w *fullWalk) step(e *Engine, step, at int) {
	var next int
	if at >= 0 {
		next = int(w.sc.unv[at])
	} else {
		next = e.bestFeasible(w.cur, w.sc.mask)
	}
	w.tour[step] = int32(next)
	w.sc.visit(next, at)
	w.length += int64(e.dist[w.cur*e.n+next])
	w.cur = next
}

// finish closes the tour and records its length.
func (w *fullWalk) finish(e *Engine) {
	w.length += int64(e.dist[w.cur*e.n+int(w.tour[0])])
	e.Lengths[w.ant] = w.length
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
func (e *Engine) constructAntFull(w *fullWalk) {
	for step := 1; step < e.n; step++ {
		at := -1
		if r, ok := w.draw(e); ok {
			at = rouletteIndex(w.row, w.sc.unv, r)
		}
		w.step(e, step, at)
	}
	w.finish(e)
}

// constructPairFull is constructAntFull for two ants in lockstep. Both
// have the same number of unvisited cities at every step, so one loop
// runs both roulette scans, and the two float add chains, each at the add
// latency on its own, overlap. Each ant draws, scans and moves exactly as
// constructAntFull would have it do.
func (e *Engine) constructPairFull(a, b *fullWalk) {
	for step := 1; step < e.n; step++ {
		atA, atB := -1, -1
		rA, okA := a.draw(e)
		rB, okB := b.draw(e)
		switch {
		case okA && okB:
			atA, atB = rouletteIndex2(a.row, a.sc.unv, rA, b.row, b.sc.unv, rB)
		case okA:
			atA = rouletteIndex(a.row, a.sc.unv, rA)
		case okB:
			atB = rouletteIndex(b.row, b.sc.unv, rB)
		}
		a.step(e, step, atA)
		b.step(e, step, atB)
	}
	a.finish(e)
	b.finish(e)
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

// rouletteIndex is rouletteMasked over a gathered row of non-negative
// weights: it resolves r against the running sum of the listed cities'
// weights in list order and returns the winner's index in list, or -1
// when no listed city carries probability. The scan adds every weight: a
// zero weight adds +0, which leaves the sum's bits as they were, so the
// sum at each positive weight is the one rouletteMasked would form. Two
// edges are settled after the loop instead of tracking the last positive
// weight per city. A zero weight can stop the scan only when r <= 0 (the
// sum has not moved since it last fell short of r), and then the first
// positive weight wins; a sum that never reaches r (a draw at a total
// rounded in another order) goes to the last positive weight.
func rouletteIndex(row []float32, list []int32, r float64) int {
	return rouletteFrom(row, list, r, 0, 0)
}

// rouletteFrom is rouletteIndex resumed at index k with running sum acc.
func rouletteFrom(row []float32, list []int32, r float64, k int, acc float32) int {
	for ; k < len(list); k++ {
		acc += row[list[k]]
		if float64(acc) >= r {
			return firstPositive(row, list, k)
		}
	}
	return lastPositive(row, list)
}

// rouletteIndex2 is rouletteIndex over two rows and lists of one length
// in one loop, until either scan stops; the other resumes alone.
func rouletteIndex2(rowA []float32, listA []int32, rA float64, rowB []float32, listB []int32, rB float64) (int, int) {
	var accA, accB float32
	listB = listB[:len(listA)]
	for k, ja := range listA {
		accA += rowA[ja]
		accB += rowB[listB[k]]
		doneA, doneB := float64(accA) >= rA, float64(accB) >= rB
		switch {
		case doneA && doneB:
			return firstPositive(rowA, listA, k), firstPositive(rowB, listB, k)
		case doneA:
			return firstPositive(rowA, listA, k), rouletteFrom(rowB, listB, rB, k+1, accB)
		case doneB:
			return rouletteFrom(rowA, listA, rA, k+1, accA), firstPositive(rowB, listB, k)
		}
	}
	return lastPositive(rowA, listA), lastPositive(rowB, listB)
}

// firstPositive returns the index of the first positive weight from
// index k on, or -1.
func firstPositive(row []float32, list []int32, k int) int {
	for ; k < len(list); k++ {
		if row[list[k]] > 0 {
			return k
		}
	}
	return -1
}

// lastPositive returns the index of the last positive weight, or -1.
func lastPositive(row []float32, list []int32) int {
	for k := len(list) - 1; k >= 0; k-- {
		if row[list[k]] > 0 {
			return k
		}
	}
	return -1
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
