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

// Reference kernels: the dense masked full rule and the modulo 2-opt
// reversal, kept verbatim as the baselines that the compacted rule and the
// wrap-around reversal must reproduce bit for bit.

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
// refConstructTours; every other step is the production code's.
func refIterateMMAS(m *MMAS, sc []refScratch) {
	m.iterCount++
	prevBest := m.BestLen
	refConstructTours(m.Engine, sc)

	bestAnt := 0
	for k := 1; k < m.m; k++ {
		if m.Lengths[k] < m.Lengths[bestAnt] {
			bestAnt = k
		}
	}
	iterBest := m.Tours[bestAnt*m.n : (bestAnt+1)*m.n]
	if m.BestLen < prevBest {
		m.setBounds(m.BestLen)
		m.iterSinceBest = 0
	} else {
		m.iterSinceBest++
	}
	m.UpdatePheromone(iterBest, m.Lengths[bestAnt])
	if m.iterSinceBest >= m.PM.StagnationReset {
		m.resetTrails()
	}
	m.recordIteration()
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
		p := aco.Params{Alpha: c.alpha, Beta: c.beta, Rho: 0.5, Ants: ants, NN: 30, Seed: 11}
		o := Options{Workers: c.workers}

		var got, want *Engine
		var stepGot, stepWant func()
		if c.kind == runMMAS {
			mp := aco.MMASParams{Params: p, BestEvery: 2, StagnationReset: 3}
			mg, err := NewMMASWithOptions(in, mp, d, o)
			if err != nil {
				t.Fatal(err)
			}
			mw, err := NewMMASWithOptions(in, mp, d, o)
			if err != nil {
				t.Fatal(err)
			}
			sc := newRefScratch(mw.Engine)
			got, want = mg.Engine, mw.Engine
			stepGot = func() { mg.Iterate(aco.FullProbabilistic) }
			stepWant = func() { refIterateMMAS(mw, sc) }
		} else {
			eg, err := NewWithOptions(in, p, d, o)
			if err != nil {
				t.Fatal(err)
			}
			ew, err := NewWithOptions(in, p, d, o)
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
					ew.recordIteration()
				}
			} else {
				stepGot = func() { eg.Iterate(aco.FullProbabilistic) }
				stepWant = func() {
					refConstructTours(ew, sc)
					ew.UpdatePheromone()
					ew.recordIteration()
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
// and at a cumulative-sum boundary. Weights spread over 2^±20, with some
// zeros, so that any change of summation order shows in the rounding; a
// whole-run comparison would miss most one-ulp differences, which move a
// selection only when the draw lands within an ulp of a boundary.
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
					if got, want := rouletteList(row, sc.unv, d), rouletteMasked(mw, d); got != want {
						t.Fatalf("n=%d, %d unvisited, r=%v: scan picked %d, masked reference %d", n, len(sc.unv), d, got, want)
					}
				}
				sc.visit(c)
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
		ref.Close()
		fresh, err := New(in, a.P)
		if err != nil {
			t.Fatal(err)
		}
		fresh.ConstructTours(aco.FullProbabilistic)
		fresh.Close()
		if !slices.Equal(ref.Tours, fresh.Tours) {
			differs = true
		}
	}
	if !differs {
		t.Error("the compacted rule matched the masked reference on every seed; the Inf·0 regime was not reached")
	}
}
