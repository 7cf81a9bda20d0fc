package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

// Reference kernels: the dense masked full rule, the modulo 2-opt
// reversal and the pheromone update on a dense Δ buffer of its own, kept
// verbatim as the baselines that the compacted rule, the wrap-around
// reversal and the update that scatters into the weight matrix must
// reproduce bit for bit.

// refScratch is one worker's scratch for refConstructAntFull.
type refScratch struct {
	mask []float32 // n tabu mask: 1 unvisited, 0 visited
	mw   []float32 // n masked-weight row staged by selection pass one
}

func newRefScratch(e *Engine) []refScratch {
	sc := make([]refScratch, e.workers)
	for w := range sc {
		sc[w] = refScratch{mask: make([]float32, e.n), mw: make([]float32, e.n)}
	}
	return sc
}

// refConstructTours is ConstructTours(aco.FullProbabilistic) built on
// refConstructAntFull.
func refConstructTours(e *Engine, sc []refScratch) {
	e.iteration++
	e.forAnts(func(w, ant int) {
		g := rng.FromState(rng.AntSeed(e.P.Seed, e.iteration, ant))
		refConstructAntFull(e, ant, &g, &sc[w])
	})
	e.reduceBest()
}

// refConstructAntFull applies the random-proportional rule over all
// unvisited cities, streaming the full weight row against the mask: pass
// one stages the masked weights into mw and totals them in four
// accumulators, pass two scans mw against the draw.
func refConstructAntFull(e *Engine, ant int, g *rng.LCG, sc *refScratch) {
	n := e.n
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
		row := e.weight[cur*n : cur*n+n]
		total := refMaskedTotal(row, mask, sc.mw)
		next := -1
		if total > 0 {
			r := g.Float64() * float64(total)
			next = rouletteMasked(sc.mw, r)
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

// refMaskedTotal is the reference rule's pass one: it stages row·mask
// into mw and totals it with four accumulators, the n mod 4 remainder
// going to the first.
func refMaskedTotal(row, mask, mw []float32) float32 {
	n := len(row)
	var t0, t1, t2, t3 float32
	j := 0
	for ; j+3 < n; j += 4 {
		w0, w1 := row[j]*mask[j], row[j+1]*mask[j+1]
		w2, w3 := row[j+2]*mask[j+2], row[j+3]*mask[j+3]
		mw[j], mw[j+1], mw[j+2], mw[j+3] = w0, w1, w2, w3
		t0 += w0
		t1 += w1
		t2 += w2
		t3 += w3
	}
	for ; j < n; j++ {
		w := row[j] * mask[j]
		mw[j] = w
		t0 += w
	}
	return (t0 + t1) + (t2 + t3)
}

// rouletteList is the list scan the full rule ran before it returned the
// winner's index: it skips zero weights, tracks the last positive city
// and returns the winning city, or -1 when no listed city carries any
// probability.
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

// listWinner is the city at rouletteIndex's returned index, or -1.
func listWinner(row []float32, list []int32, r float64) int {
	return cityAt(list, rouletteIndex(row, list, r))
}

// refReverse flips length tour positions starting at position i (cyclic),
// wrapping both cursors with % n.
func refReverse(tour, pos []int32, i, length int) {
	n := len(tour)
	a := i
	b := i + length - 1
	for k := 0; k < length/2; k++ {
		pa := a % n
		pb := b % n
		tour[pa], tour[pb] = tour[pb], tour[pa]
		pos[tour[pa]] = int32(pa)
		pos[tour[pb]] = int32(pb)
		a++
		b--
	}
}

// refIterateMMAS is MMAS.Iterate(aco.FullProbabilistic) built on
// refConstructTours; every other step, the schedule included, is the
// production code's.
func refIterateMMAS(m *MMAS, sc []refScratch) {
	refConstructTours(m.Engine, sc)
	useBest, reset := m.Next(m.BestLen)
	ant := aco.IterationBest(m.Lengths)
	tour, length := m.Tours[ant*m.n:(ant+1)*m.n], m.Lengths[ant]
	if useBest {
		tour, length = m.BestTour, m.BestLen
	}
	m.UpdatePheromone(tour, length)
	if reset {
		m.resetTrails()
	}
}

// refDelta is the reference update's state: the n×n deposit buffer Δ,
// zero between updates, and the weight entries the deposits invalidate
// (α ≠ 1 only).
type refDelta struct {
	delta   []float32
	touched []int32
}

func newRefDelta(e *Engine) *refDelta {
	return &refDelta{delta: make([]float32, e.n*e.n)}
}

// refUpdatePheromone is UpdatePheromone on the dense Δ buffer: the
// deposits of all ants scatter into Δ, then one flat sweep applies
// τ ← (1-ρ)τ + Δ, refreshes the weight matrix, and re-zeroes Δ.
func refUpdatePheromone(e *Engine, r *refDelta) {
	n := e.n
	for ant := 0; ant < e.m; ant++ {
		tour := e.Tours[ant*n : (ant+1)*n]
		d := float32(1.0 / float64(e.Lengths[ant]))
		refScatterDeposit(e, r, tour, d, e.P.Alpha != 1)
	}
	refApplyUpdate(e, r)
}

// refScatterDeposit adds d on both directions of every edge of the tour
// into Δ; track records the touched entries for the α ≠ 1 incremental
// weight invalidation.
func refScatterDeposit(e *Engine, r *refDelta, tour []int32, d float32, track bool) {
	n := e.n
	prev := int(tour[n-1])
	for i := 0; i < n; i++ {
		c := int(tour[i])
		r.delta[prev*n+c] += d
		r.delta[c*n+prev] = r.delta[prev*n+c]
		if track {
			r.touched = append(r.touched, int32(prev*n+c), int32(c*n+prev))
		}
		prev = c
	}
}

// refApplyUpdate is the fused evaporate+deposit sweep over τ, weight and Δ.
func refApplyUpdate(e *Engine, r *refDelta) {
	f := float32(1 - e.P.Rho)
	if e.P.Alpha == 1 {
		e.forSpan(len(e.tau), func(lo, hi int) {
			tau, w, eb, del := e.tau[lo:hi], e.weight[lo:hi], e.etaBeta[lo:hi], r.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				tau[i] = t
				w[i] = t * eb[i]
				del[i] = 0
			}
		})
		e.refreshNN()
		return
	}
	s := float32(math.Pow(float64(f), e.P.Alpha))
	e.forSpan(len(e.tau), func(lo, hi int) {
		tau, w, del := e.tau[lo:hi], e.weight[lo:hi], r.delta[lo:hi]
		for i := range tau {
			tau[i] = tau[i]*f + del[i]
			w[i] *= s
			del[i] = 0
		}
	})
	tau, w := e.tau, e.weight
	if len(r.touched) >= len(tau)/2 {
		e.forSpan(len(w), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w[i] = powF32(tau[i], e.P.Alpha) * e.etaBeta[i]
			}
		})
	} else {
		for _, idx := range r.touched {
			w[idx] = powF32(tau[idx], e.P.Alpha) * e.etaBeta[idx]
		}
	}
	r.touched = r.touched[:0]
	e.refreshNN()
}

// refUpdateMMAS is MMAS.UpdatePheromone on the dense Δ buffer: the
// depositing tour's Δ scatters first, then a single traversal evaporates,
// deposits, clamps and refreshes the weight cell by cell.
func refUpdateMMAS(m *MMAS, r *refDelta, tour []int32, length int64) {
	refScatterDeposit(m.Engine, r, tour, float32(1/float64(length)), false)
	f := float32(1 - m.P.Rho)
	tmin, tmax := float32(m.TauMin), float32(m.TauMax)
	if m.P.Alpha == 1 {
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb, del := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi], r.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = t * eb[i]
				del[i] = 0
			}
		})
	} else {
		alpha := m.P.Alpha
		m.forSpan(len(m.tau), func(lo, hi int) {
			tau, w, eb, del := m.tau[lo:hi], m.weight[lo:hi], m.etaBeta[lo:hi], r.delta[lo:hi]
			for i := range tau {
				t := tau[i]*f + del[i]
				if t < tmin {
					t = tmin
				} else if t > tmax {
					t = tmax
				}
				tau[i] = t
				w[i] = powF32(t, alpha) * eb[i]
				del[i] = 0
			}
		})
	}
	m.refreshNN()
}

// refDeposits returns the Δ that the reference scatter builds from the
// engine's current tours.
func refDeposits(e *Engine) []float32 {
	r := newRefDelta(e)
	n := e.n
	for ant := 0; ant < e.m; ant++ {
		refScatterDeposit(e, r, e.Tours[ant*n:(ant+1)*n], float32(1.0/float64(e.Lengths[ant])), false)
	}
	return r.delta
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// identityInstances are the byte-identity suite's instances: four TSPLIB
// benchmarks and generated sizes covering every n mod 4, so the class-0
// tail of the compacted totals holds 0, 1, 2 and 3 cities.
func identityInstances(t *testing.T) []*tsp.Instance {
	t.Helper()
	var ins []*tsp.Instance
	for _, name := range []string{"att48", "kroC100", "a280", "pr1002"} {
		ins = append(ins, tsp.MustLoadBenchmark(name))
	}
	for _, n := range []int{3, 4, 5, 6, 7, 500, 501, 502, 503} {
		// A 30·√n square puts nearest neighbours about 15 apart, where
		// η^30 straddles float32's underflow: β = 30 rows mix zero and
		// positive weights.
		spec := tsp.GenSpec{Name: fmt.Sprintf("gen%d", n), N: n, Type: tsp.Euc2D, Seed: uint64(n), Width: 30 * math.Sqrt(float64(n))}
		in, err := tsp.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

// TestFullRuleMatchesMaskedReference runs the production engine beside
// one stepped with refConstructAntFull and demands == on every ant's
// tour and length, on τ and on the best-so-far after every iteration:
// AS without and with 2-opt, and MMAS, all on the full rule. β = 30
// underflows most weights to zero, which drives the bestFeasible
// fallback. Both sides run the production 2-opt, whose reversal
// TestRouletteIndexMatchesListScan pins the index-returning scans to the
// list scan they replaced, on random ascending lists over random rows with
// zero weights (none, a few, half or all of a row's): at every draw at 0,
// inside the range, at each running-sum boundary, at the list-order total
// and past it, rouletteIndex picks the list scan's city, and so does each
// half of rouletteIndex2 when it scans that list beside another of the
// same length. A list without a positive weight gives -1 whatever the
// draw.
func TestRouletteIndexMatchesListScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(40)
		l := r.Intn(n + 1)
		zeros := []int{0, 8, 2, 1}[trial%4] // one weight in zeros is 0 (0: none)
		rowA, listA, drawsA, totalA := randomScan(r, n, l, zeros)
		rowB, listB, drawsB, _ := randomScan(r, n, l, zeros)
		for _, d := range drawsA {
			want := rouletteList(rowA, listA, d)
			if got := listWinner(rowA, listA, d); got != want {
				t.Fatalf("trial %d, list %v, weights %v, r=%v: index scan picked %d, list scan %d", trial, listA, rowA, d, got, want)
			}
			if totalA == 0 && want != -1 {
				t.Fatalf("trial %d: list without a positive weight picked %d at r=%v", trial, want, d)
			}
			dB := drawsB[r.Intn(len(drawsB))]
			atA, atB := rouletteIndex2(rowA, listA, d, rowB, listB, dB)
			if got := cityAt(listA, atA); got != want {
				t.Fatalf("trial %d, r=%v beside r=%v: the pair scan's first half picked %d, list scan %d", trial, d, dB, got, want)
			}
			if got, want := cityAt(listB, atB), rouletteList(rowB, listB, dB); got != want {
				t.Fatalf("trial %d, r=%v beside r=%v: the pair scan's second half picked %d, list scan %d", trial, dB, d, got, want)
			}
		}
	}
}

// randomScan returns a row of n weights spread over 2^±20, one in zeros
// of them 0 (none when zeros is 0), an ascending list of l of its cities,
// the list-order total, and the draws to try on it: 0, each running-sum
// boundary and a point inside each step, just past the total, far past it
// and +Inf.
func randomScan(r *rand.Rand, n, l, zeros int) (row []float32, list []int32, draws []float64, total float32) {
	row = make([]float32, n)
	for j := range row {
		row[j] = float32(math.Ldexp(r.Float64(), r.Intn(41)-20))
		if zeros > 0 && r.Intn(zeros) == 0 {
			row[j] = 0
		}
	}
	for _, j := range r.Perm(n)[:l] {
		list = append(list, int32(j))
	}
	slices.Sort(list)
	draws = []float64{0}
	for _, j := range list {
		total += row[j]
		draws = append(draws, float64(total), r.Float64()*float64(total))
	}
	draws = append(draws, math.Nextafter(float64(total), math.Inf(1)), 2*float64(total)+1, math.Inf(1))
	return row, list, draws, total
}

// cityAt is list[at], or -1 for at < 0.
func cityAt(list []int32, at int) int {
	if at < 0 {
		return -1
	}
	return int(list[at])
}

// TestReverseMatchesModReference pins to the % n reference.
func TestFullRuleMatchesMaskedReference(t *testing.T) {
	for _, in := range identityInstances(t) {
		t.Run(in.Name, func(t *testing.T) { matchReference(t, in) })
	}
}

type runKind int

const (
	runAS runKind = iota
	runASLS
	runMMAS
)

var runKindName = [...]string{"AS", "AS+2opt", "MMAS"}

func matchReference(t *testing.T, in *tsp.Instance) {
	// A pairwise covering table rather than the full cross product: each
	// run kind meets both values of α, β, the ant count and the worker
	// count, and every (α, β) pair runs. The AS+2opt row with α = 1,
	// β = 2 and 25 ants is the engine-large job's shape. m = n runs only
	// on n ≤ 100, where an m = n iteration stays cheap; larger instances
	// run ACOTSP's 25 ants, and those above 280 cities one iteration.
	configs := []struct {
		kind        runKind
		alpha, beta float64
		antsN       bool
		workers     int
	}{
		{runAS, 1, 30, false, 2},
		{runAS, 1.5, 2, true, 1},
		{runASLS, 1, 2, false, 1},
		{runASLS, 1.5, 30, true, 2},
		{runMMAS, 1, 2, true, 2},
		{runMMAS, 1.5, 30, false, 1},
	}
	n := in.N()
	iters := 3
	if n > 280 {
		iters = 1
	}
	d, err := in.ComputeDerived(30)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		if n > 600 && c.beta != 2 {
			// β = 30 leaves 4 of pr1002's million weights positive, so
			// such a row runs almost only the fallback path, which a280
			// and the generated instances cover with mixed rows at a
			// fraction of the cost.
			continue
		}
		ants := 25
		if c.antsN && n <= 100 {
			ants = n
		}
		label := fmt.Sprintf("%s/alpha=%v/beta=%v/m=%d/w=%d", runKindName[c.kind], c.alpha, c.beta, ants, c.workers)
		p := aco.Params{Alpha: c.alpha, Beta: c.beta, Rho: 0.5, Ants: ants, NN: 30, Seed: 11, Workers: c.workers}

		var got, want *Engine
		var stepGot, stepWant func()
		if c.kind == runMMAS {
			mp := aco.MMASParams{Params: p, BestEvery: 2, StagnationReset: 3}
			mg, err := NewMMAS(in, mp, d)
			if err != nil {
				t.Fatal(err)
			}
			mw, err := NewMMAS(in, mp, d)
			if err != nil {
				t.Fatal(err)
			}
			sc := newRefScratch(mw.Engine)
			got, want = mg.Engine, mw.Engine
			stepGot = func() { mg.Iterate(aco.FullProbabilistic) }
			stepWant = func() { refIterateMMAS(mw, sc) }
		} else {
			eg, err := NewWithDerived(in, p, d)
			if err != nil {
				t.Fatal(err)
			}
			ew, err := NewWithDerived(in, p, d)
			if err != nil {
				t.Fatal(err)
			}
			sc := newRefScratch(ew)
			got, want = eg, ew
			if c.kind == runASLS {
				stepGot = func() { eg.IterateWithLocalSearch(aco.FullProbabilistic) }
				stepWant = func() {
					refConstructTours(ew, sc)
					ew.LocalSearchTours()
					ew.UpdatePheromone()
				}
			} else {
				stepGot = func() { eg.Iterate(aco.FullProbabilistic) }
				stepWant = func() {
					refConstructTours(ew, sc)
					ew.UpdatePheromone()
				}
			}
		}
		for it := 1; it <= iters; it++ {
			stepGot()
			stepWant()
			if !slices.Equal(got.Tours, want.Tours) {
				t.Fatalf("%s iteration %d: tours differ from the masked reference", label, it)
			}
			if !slices.Equal(got.Lengths, want.Lengths) {
				t.Fatalf("%s iteration %d: lengths differ from the masked reference", label, it)
			}
			if !slices.Equal(got.tau, want.tau) {
				t.Fatalf("%s iteration %d: tau differs from the masked reference", label, it)
			}
			if got.BestLen != want.BestLen || !slices.Equal(got.BestTour, want.BestTour) {
				t.Fatalf("%s iteration %d: best-so-far differs from the masked reference", label, it)
			}
		}
		for ant := 0; ant < got.m; ant++ {
			if err := in.ValidTour(got.Tours[ant*n : (ant+1)*n]); err != nil {
				t.Fatalf("%s: ant %d: %v", label, ant, err)
			}
		}
		got.Close()
		want.Close()
	}
}

// TestSelectionMatchesMaskedReference checks the compacted selection
// step against the reference's directly, for every n mod 4 and after
// every visit of random tours over random rows: the four-class total must
// equal the masked four-accumulator total bit for bit, and the list scan
// must pick the masked scan's city at r = 0, at r = total, at a random r
// and at a cumulative-sum boundary. Visits alternate, by trial, between
// passing the city's index in the ascending list and searching for it.
// Weights spread over 2^±20, with some zeros, so that any change of
// summation order shows in the rounding; a whole-run comparison would
// miss most one-ulp differences, which move a selection only when the
// draw lands within an ulp of a boundary.
func TestSelectionMatchesMaskedReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 500, 501, 502, 503} {
		trials := 40
		if n >= 500 {
			trials = 10
		}
		sc := newConstructScratch(n, 1)
		mask, mw := make([]float32, n), make([]float32, n)
		row := make([]float32, n)
		for trial := 0; trial < trials; trial++ {
			for j := range row {
				row[j] = float32(math.Ldexp(r.Float64(), r.Intn(41)-20))
				if r.Intn(8) == 0 {
					row[j] = 0
				}
			}
			sc.reset()
			for j := range mask {
				mask[j] = 1
			}
			for _, c := range r.Perm(n) {
				want := refMaskedTotal(row, mask, mw)
				got := sc.total(row)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("n=%d, %d unvisited: total %v, masked reference %v", n, len(sc.unv), got, want)
				}
				draws := []float64{0, float64(want), r.Float64() * float64(want)}
				acc := float32(0)
				stop := r.Intn(n)
				for j := 0; j <= stop; j++ {
					acc += mw[j]
				}
				draws = append(draws, float64(acc))
				for _, d := range draws {
					if got, want := listWinner(row, sc.unv, d), rouletteMasked(mw, d); got != want {
						t.Fatalf("n=%d, %d unvisited, r=%v: scan picked %d, masked reference %d", n, len(sc.unv), d, got, want)
					}
				}
				at := -1 // the roulette's step passes c's index, the fallback's searches
				if trial%2 == 0 {
					at = slices.Index(sc.unv, int32(c))
				}
				sc.visit(c, at)
				mask[c] = 0
				if !slices.Equal(sc.mask, mask) {
					t.Fatalf("n=%d: mask out of step after visiting %d", n, c)
				}
			}
		}
	}
}

// TestReverseMatchesModReference pins the wrap-around reversal to the %
// n reference: the same tour and position table for every start and
// length on tours of up to 17 cities, and on 500–503 cities for every
// start at the shortest, middle and longest lengths and at those whose
// segment ends just before, at or just after the wrap, plus random
// (start, length) pairs.
func TestReverseMatchesModReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sizes []int
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range append(sizes, 500, 501, 502, 503) {
		base := make([]int32, n)
		for p, c := range r.Perm(n) {
			base[p] = int32(c)
		}
		tour, pos := make([]int32, n), make([]int32, n)
		wantTour, wantPos := make([]int32, n), make([]int32, n)
		e := &Engine{n: n}
		ls := &twoOptScratch{pos: pos}
		check := func(i, length int) {
			t.Helper()
			copy(tour, base)
			for p, c := range tour {
				pos[c] = int32(p)
			}
			copy(wantTour, tour)
			copy(wantPos, pos)
			refReverse(wantTour, wantPos, i, length)
			e.reverse(tour, i, length, ls)
			if !slices.Equal(tour, wantTour) || !slices.Equal(pos, wantPos) {
				t.Fatalf("n=%d i=%d length=%d: reversal differs from the %% n reference", n, i, length)
			}
		}
		if n <= 17 {
			for i := 0; i < n; i++ {
				for length := 0; length <= n; length++ {
					check(i, length)
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			for _, length := range []int{0, 1, 2, 3, n/2 - 1, n / 2, n/2 + 1, n - i - 1, n - i, n - i + 1, n - 1, n} {
				if length >= 0 && length <= n {
					check(i, length)
				}
			}
		}
		for k := 0; k < 500; k++ {
			check(r.Intn(n), r.Intn(n+1))
		}
	}
}

// TestFullRuleNonFiniteVisitedWeight pins the one regime where the
// compacted rule and the masked reference choose differently: a visited
// city whose weight is +Inf. Distance 0 between cities 0 and 1 makes
// η^β = 10^40, which overflows float32; the masked rule's Inf·0 = NaN then
// poisons the row total and forces the argmax fallback, while the
// compacted rule never touches the visited city and stays proportional
// over the unvisited ones, as the float64 colony does. Tours must still
// be valid permutations with exact lengths, and reruns byte-identical.
func TestFullRuleNonFiniteVisitedWeight(t *testing.T) {
	const n = 8
	m := make([]int32, n*n)
	for i := range n {
		for j := range n {
			if i != j {
				m[i*n+j] = 1
			}
		}
	}
	m[0*n+1], m[1*n+0] = 0, 0
	in, err := tsp.NewExplicit("inf8", n, m)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) *Engine {
		p := aco.Params{Alpha: 1, Beta: 40, Rho: 0.5, Ants: 8, NN: 4, Seed: seed}
		e, err := New(in, p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if w := e.weight[0*n+1]; !math.IsInf(float64(w), 1) {
			t.Fatalf("weight(0, 1) = %v, want +Inf", w)
		}
		for i := 0; i < 3; i++ {
			e.Iterate(aco.FullProbabilistic)
			for ant := 0; ant < e.m; ant++ {
				tour := e.Tours[ant*n : (ant+1)*n]
				if err := in.ValidTour(tour); err != nil {
					t.Fatalf("seed %d ant %d: %v", seed, ant, err)
				}
				if l := in.TourLength(tour); l != e.Lengths[ant] {
					t.Fatalf("seed %d ant %d: recorded length %d, actual %d", seed, ant, e.Lengths[ant], l)
				}
			}
		}
		return e
	}
	differs := false
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if !slices.Equal(a.Tours, b.Tours) || !slices.Equal(a.Lengths, b.Lengths) || !slices.Equal(a.tau, b.tau) ||
			!slices.Equal(a.BestTour, b.BestTour) {
			t.Fatalf("seed %d: rerun is not byte-identical", seed)
		}

		ref, err := New(in, a.P)
		if err != nil {
			t.Fatal(err)
		}
		refConstructTours(ref, newRefScratch(ref))
		fresh, err := New(in, a.P)
		if err != nil {
			t.Fatal(err)
		}
		fresh.ConstructTours(aco.FullProbabilistic)
		if !slices.Equal(ref.Tours, fresh.Tours) {
			differs = true
		}
		ref.Close()
		fresh.Close()
	}
	if !differs {
		t.Error("the compacted rule matched the masked reference on every seed; the Inf·0 regime was not reached")
	}
}

// TestUpdateMatchesDenseDeltaReference steps the production engine beside
// one whose pheromone updates run the dense-Δ reference and demands the
// same bits in τ, the weights and wNN, and the same tours, after each of
// three updates: AS with α = 1, AS with α ≠ 1 and deposits below, at and
// above the dense threshold 2·n·m ≥ ⌊n²/2⌋ (m = 5, ⌊n/4⌋ and ⌊n/4⌋+1),
// and MMAS with α = 1 and α ≠ 1, whose schedule deposits the
// iteration-best tour in updates 1 and 3 and the best-so-far in update 2.
// Every case runs at 1, 2 and 3 workers on att48, kroC100 and a 257-city
// instance, on the NN rule, so wNN is gathered after every update.
func TestUpdateMatchesDenseDeltaReference(t *testing.T) {
	gen, err := tsp.Generate(tsp.GenSpec{Name: "gen257", N: 257, Type: tsp.Euc2D, Seed: 257})
	if err != nil {
		t.Fatal(err)
	}
	ins := []*tsp.Instance{tsp.MustLoadBenchmark("att48"), tsp.MustLoadBenchmark("kroC100"), gen}
	configs := []struct {
		name  string
		mmas  bool
		alpha float64
		ants  func(n int) int
	}{
		{"AS/alpha=1", false, 1, func(int) int { return 25 }},
		{"AS/alpha=1.3/m=5", false, 1.3, func(int) int { return 5 }},
		{"AS/alpha=0.5/m=n/4", false, 0.5, func(n int) int { return n / 4 }},
		{"AS/alpha=2/m=n/4+1", false, 2, func(n int) int { return n/4 + 1 }},
		{"MMAS/alpha=1", true, 1, func(int) int { return 13 }},
		{"MMAS/alpha=1.5", true, 1.5, func(int) int { return 13 }},
	}
	for _, in := range ins {
		for _, c := range configs {
			for _, workers := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s/%s/w=%d", in.Name, c.name, workers)
				p := aco.Params{Alpha: c.alpha, Beta: 2, Rho: 0.5, Ants: c.ants(in.N()), NN: 20, Seed: 3, Workers: workers}
				got, want, stepGot, stepWant := updatePair(t, in, p, c.mmas)
				for it := 1; it <= 3; it++ {
					stepGot()
					stepWant()
					switch {
					case !slices.Equal(got.Tours, want.Tours):
						t.Fatalf("%s update %d: tours differ from the dense-Δ reference run", label, it)
					case !sameBits(got.tau, want.tau):
						t.Fatalf("%s update %d: tau differs from the dense-Δ reference", label, it)
					case !sameBits(got.weight, want.weight):
						t.Fatalf("%s update %d: weights differ from the dense-Δ reference", label, it)
					case got.wNN == nil || !sameBits(got.wNN, want.wNN):
						t.Fatalf("%s update %d: wNN differs from the dense-Δ reference", label, it)
					}
				}
				got.Close()
				want.Close()
			}
		}
	}
}

// updatePair builds two engines with the same parameters and the steps
// that iterate them on the NN rule: the first with the production update,
// the second with the dense-Δ reference.
func updatePair(t *testing.T, in *tsp.Instance, p aco.Params, mmas bool) (got, want *Engine, stepGot, stepWant func()) {
	t.Helper()
	v := aco.NNListConstruction
	if mmas {
		mp := aco.MMASParams{Params: p, BestEvery: 2, StagnationReset: 3}
		mg, err := NewMMAS(in, mp, nil)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := NewMMAS(in, mp, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := newRefDelta(mw.Engine)
		return mg.Engine, mw.Engine, func() { mg.Iterate(v) }, func() {
			mw.ConstructTours(v)
			useBest, reset := mw.Next(mw.BestLen)
			ant := aco.IterationBest(mw.Lengths)
			tour, length := mw.Tours[ant*mw.n:(ant+1)*mw.n], mw.Lengths[ant]
			if useBest {
				tour, length = mw.BestTour, mw.BestLen
			}
			refUpdateMMAS(mw, r, tour, length)
			if reset {
				mw.resetTrails()
			}
		}
	}
	eg, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefDelta(ew)
	return eg, ew, func() { eg.Iterate(v) }, func() {
		ew.ConstructTours(v)
		refUpdatePheromone(ew, r)
	}
}
