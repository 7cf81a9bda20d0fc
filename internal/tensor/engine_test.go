package tensor

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// dyadicInstance builds the exactness test bed: n cities, every pairwise
// distance the same power of two. With α = 1 and β = 0 every quantity the
// engines compute — τ0 = m/C^nn, evaporation by ρ = 0.5, deposits 1/(n·d)
// — is a dyadic rational well inside float32's 24-bit mantissa, so the
// float32 tensor path and the float64 colony see bit-identical
// probabilities and must produce bit-identical tours.
func dyadicInstance(t *testing.T) *tsp.Instance {
	t.Helper()
	const n, d = 8, 16
	m := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m[i*n+j] = d
			}
		}
	}
	in, err := tsp.NewExplicit("dyadic8", n, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func dyadicParams() aco.Params {
	return aco.Params{Alpha: 1, Beta: 0, Rho: 0.5, Ants: 0, NN: 4, Seed: 7}
}

func sameTours(t *testing.T, iter int, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration %d: tours diverge at flat index %d: tensor %d, colony %d",
				iter, i, got[i], want[i])
		}
	}
}

// TestExactEquivalenceASWithColony: on the dyadic instance the tensor AS
// and the reference colony must agree tour for tour, iteration for
// iteration, under both construction variants.
func TestExactEquivalenceASWithColony(t *testing.T) {
	in := dyadicInstance(t)
	for _, v := range []aco.Variant{aco.NNListConstruction, aco.FullProbabilistic} {
		c, err := aco.New(in, dyadicParams())
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(in, dyadicParams())
		if err != nil {
			t.Fatal(err)
		}
		if e.Tau0() != c.Tau0() {
			t.Fatalf("%v: tau0 mismatch: tensor %v, colony %v", v, e.Tau0(), c.Tau0())
		}
		for iter := 1; iter <= 6; iter++ {
			c.Iterate(v)
			e.Iterate(v)
			sameTours(t, iter, e.Tours, c.Tours)
			for k := range c.Lengths {
				if e.Lengths[k] != c.Lengths[k] {
					t.Fatalf("%v iteration %d: ant %d length %d vs colony %d",
						v, iter, k, e.Lengths[k], c.Lengths[k])
				}
			}
			if e.BestLen != c.BestLen {
				t.Fatalf("%v iteration %d: best %d vs colony %d", v, iter, e.BestLen, c.BestLen)
			}
		}
	}
}

// TestExactEquivalenceACSWithColony: the tensor ACS must reproduce the
// reference ACS draw for draw on the dyadic instance — including the
// per-edge local updates and the best-so-far global update.
func TestExactEquivalenceACSWithColony(t *testing.T) {
	in := dyadicInstance(t)
	p := aco.ACSParams{Params: dyadicParams(), Q0: 0.5, Xi: 0.5}
	p.Ants = 8
	c, err := aco.NewACSColony(in, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewACS(in, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tau0() != c.Tau0() {
		t.Fatalf("tau0 mismatch: tensor %v, colony %v", e.Tau0(), c.Tau0())
	}
	for iter := 1; iter <= 6; iter++ {
		c.Iterate()
		e.Iterate()
		sameTours(t, iter, e.Tours, c.Tours)
		if e.BestLen != c.BestLen {
			t.Fatalf("iteration %d: best %d vs colony %d", iter, e.BestLen, c.BestLen)
		}
	}
}

// TestExactEquivalenceMMASWithColony: the tensor MMAS must reproduce the
// reference MMAS — bounds, single-ant deposits, clamping — on the dyadic
// instance.
func TestExactEquivalenceMMASWithColony(t *testing.T) {
	in := dyadicInstance(t)
	p := aco.MMASParams{Params: dyadicParams(), BestEvery: 3, StagnationReset: 50}
	c, err := aco.NewMMASColony(in, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMMAS(in, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.TauMax != c.TauMax || e.TauMin != c.TauMin {
		t.Fatalf("bounds mismatch: tensor [%v, %v], colony [%v, %v]",
			e.TauMin, e.TauMax, c.TauMin, c.TauMax)
	}
	for iter := 1; iter <= 6; iter++ {
		c.Iterate(aco.NNListConstruction)
		e.Iterate(aco.NNListConstruction)
		sameTours(t, iter, e.Tours, c.Tours)
		if e.BestLen != c.BestLen {
			t.Fatalf("iteration %d: best %d vs colony %d", iter, e.BestLen, c.BestLen)
		}
	}
	if !e.BoundsValid() {
		t.Error("tensor MMAS trails escaped [tau_min, tau_max]")
	}
}

// TestTensorDeterministicRerun: same seed, same instance — the float32
// path must reproduce itself exactly; a different seed must be allowed to
// diverge (and does on att48).
func TestTensorDeterministicRerun(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 99
	run := func(seed uint64) ([]int32, int64) {
		p := p
		p.Seed = seed
		e, err := New(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			e.Iterate(aco.NNListConstruction)
		}
		return append([]int32(nil), e.BestTour...), e.BestLen
	}
	t1, l1 := run(99)
	t2, l2 := run(99)
	if l1 != l2 {
		t.Fatalf("same seed, different best: %d vs %d", l1, l2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed, tours diverge at %d", i)
		}
	}
	if _, l3 := run(100); l3 == l1 {
		t.Logf("different seed reached the same best length %d (allowed, just unusual)", l1)
	}
}

// TestTensorQualityGapVsColony: on a real float32-inexact instance the
// tensor engine explores a slightly different trajectory than the float64
// colony, but the solution quality must stay within the §17 tolerance —
// both engines optimise the same exact objective, only the sampling
// distribution drifts by at most one float32 ulp per partial sum.
func TestTensorQualityGapVsColony(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 5
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		c.Iterate(aco.NNListConstruction)
		e.Iterate(aco.NNListConstruction)
	}
	cl, tour, el := c.BestLen, e.BestTour, e.BestLen
	if err := in.ValidTour(tour); err != nil {
		t.Fatalf("tensor best tour invalid: %v", err)
	}
	lo, hi := float64(cl)*0.85, float64(cl)*1.15
	if float64(el) < lo || float64(el) > hi {
		t.Errorf("tensor best %d outside 15%% band around colony best %d", el, cl)
	}
	for k := 0; k < e.Ants(); k++ {
		tk := e.Tours[k*in.N() : (k+1)*in.N()]
		if err := in.ValidTour(tk); err != nil {
			t.Fatalf("ant %d tour invalid: %v", k, err)
		}
	}
}

// TestCheckpointRestoreResumesDeterministically: restoring a checkpoint
// into a fresh engine and resuming must replay the interrupted run exactly
// — construction streams depend only on (seed, iteration, ant).
func TestCheckpointRestoreResumesDeterministically(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 21

	e1, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e1.Iterate(aco.NNListConstruction)
	}
	cp := e1.Checkpoint()
	for i := 0; i < 5; i++ {
		e1.Iterate(aco.NNListConstruction)
	}

	e2, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e2.Iterate(aco.NNListConstruction)
	}

	if e1.BestLen != e2.BestLen {
		t.Fatalf("resumed run diverged: best %d vs %d", e2.BestLen, e1.BestLen)
	}
	sameTours(t, 10, e2.Tours, e1.Tours)

	// Shape mismatches must be rejected, not silently truncated.
	small := dyadicInstance(t)
	e3, err := New(small, dyadicParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Restore(cp); err == nil {
		t.Error("restoring a mismatched checkpoint succeeded")
	}
}

// TestTensorLocalSearchImproves: the vectorised 2-opt must only ever
// shorten tours, keep them valid, and reach lengths no worse than the
// construction-only engine's.
func TestTensorLocalSearchImproves(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 3
	e, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	e.ConstructTours(aco.NNListConstruction)
	before := append([]int64(nil), e.Lengths...)
	e.LocalSearchTours()
	improvedAny := false
	for k := 0; k < e.Ants(); k++ {
		tk := e.Tours[k*in.N() : (k+1)*in.N()]
		if err := in.ValidTour(tk); err != nil {
			t.Fatalf("ant %d tour invalid after 2-opt: %v", k, err)
		}
		if e.Lengths[k] > before[k] {
			t.Fatalf("2-opt lengthened ant %d: %d -> %d", k, before[k], e.Lengths[k])
		}
		if got := in.TourLength(tk); got != e.Lengths[k] {
			t.Fatalf("ant %d recorded length %d, actual %d", k, e.Lengths[k], got)
		}
		if e.Lengths[k] < before[k] {
			improvedAny = true
		}
	}
	if !improvedAny {
		t.Error("2-opt improved no tour on att48 (first-iteration tours are far from 2-opt-optimal)")
	}
	// A full iterate-with-LS cycle must also work end to end.
	e.IterateWithLocalSearch(aco.NNListConstruction)
	if err := in.ValidTour(e.BestTour); err != nil {
		t.Fatalf("best tour invalid after LS iteration: %v", err)
	}
}

// TestNNWeightsOnlyForNNRule: only the NN-list rule reads the gathered
// weights wNN, so after two iterations neither the ACS engine nor a
// full-rule engine with 2-opt, both built with NN lists, holds them, and
// an NN-list engine's wNN is the weight matrix gathered along nnList.
func TestNNWeightsOnlyForNNRule(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	p := aco.DefaultParams()
	p.Ants = 10
	d := in.Derive(p.NN, true)

	acs, err := NewACS(in, aco.ACSParams{Params: p, Q0: 0.9, Xi: 0.1}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer acs.Close()
	full, err := NewWithDerived(in, p, d)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	nn, err := NewWithDerived(in, p, d)
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	for i := 0; i < 2; i++ {
		acs.Iterate()
		full.IterateWithLocalSearch(aco.FullProbabilistic)
		nn.Iterate(aco.NNListConstruction)
	}
	if acs.wNN != nil {
		t.Errorf("ACS engine holds %d gathered weights", len(acs.wNN))
	}
	if full.wNN != nil {
		t.Errorf("full-rule 2-opt engine holds %d gathered weights", len(full.wNN))
	}
	n, k := in.N(), nn.nn
	if len(nn.wNN) != n*k {
		t.Fatalf("NN-list engine holds %d gathered weights, want %d", len(nn.wNN), n*k)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			if got, want := nn.wNN[i*k+j], nn.weight[i*n+int(nn.nnList[i*k+j])]; got != want {
				t.Fatalf("wNN[%d][%d] = %v, want weight %v", i, j, got, want)
			}
		}
	}
}

// TestRouletteMasked covers the cumulative-sum roulette edges: zero slots
// (visited or zero-probability — the mask multiply has already run) can
// never win, draws past the total settle on the last carrying slot, and a
// row with no probability mass reports -1.
func TestRouletteMasked(t *testing.T) {
	// masked weights 0, 0.5, 0, 0.25 -> cum 0, 0.5, 0.5, 0.75
	mw := []float32{0, 0.5, 0, 0.25}
	if got := rouletteMasked(mw, 0); got != 1 {
		t.Errorf("r = 0 selected %d, want first carrying slot 1", got)
	}
	if got := rouletteMasked(mw, 0.5); got != 1 {
		t.Errorf("r = 0.5 selected %d, want 1", got)
	}
	if got := rouletteMasked(mw, 0.6); got != 3 {
		t.Errorf("r = 0.6 selected %d, want 3 (zero slot 2 must not win)", got)
	}
	if got := rouletteMasked(mw, 2.0); got != 3 {
		t.Errorf("overshooting r selected %d, want last carrying slot 3", got)
	}
	if got := rouletteMasked([]float32{0, 0, 0}, 0.5); got != -1 {
		t.Errorf("all-zero row selected %d, want -1", got)
	}
}

// TestRouletteList covers the compacted scan over a gathered row: only
// listed (unvisited) cities can win, whatever the weight of an unlisted
// one; zero-weight cities are skipped; r = 0 takes the first positive
// city and r = total the last; a list with no probability mass reports -1.
// The scan returns the winner's index in the list.
func TestRouletteList(t *testing.T) {
	// cities 0 and 3 are visited (unlisted) and heavy; listed weights
	// 0, 0.25, 0.125, 0 -> cum 0, 0.25, 0.375, 0.375
	row := []float32{0.5, 0, 0.25, 9, 0.125, 0}
	list := []int32{1, 2, 4, 5}
	for _, c := range []struct {
		r    float64
		want int // winning city
		why  string
	}{
		{0, 2, "first positive city"},
		{0.3, 4, "the crossing city"},
		{0.375, 4, "last positive city at r = total (zero city 5 must not win)"},
		{2.0, 4, "last positive city past the total"},
	} {
		at := rouletteIndex(row, list, c.r)
		if at < 0 || list[at] != int32(c.want) {
			t.Errorf("r = %v selected index %d, want city %d: %s", c.r, at, c.want, c.why)
		}
	}
	if got := rouletteIndex(row, []int32{1, 5}, 0); got != -1 {
		t.Errorf("all-zero list selected index %d, want -1", got)
	}
}

// TestTensorRejectsBadInput: parameter validation and derived-shape checks
// must fail loudly.
func TestTensorRejectsBadInput(t *testing.T) {
	in := dyadicInstance(t)
	bad := dyadicParams()
	bad.Rho = 0
	if _, err := New(in, bad); err == nil {
		t.Error("rho = 0 accepted")
	}
	d, err := in.ComputeDerived(2)
	if err != nil {
		t.Fatal(err)
	}
	p := dyadicParams() // NN = 4, derived built with nn = 2
	if _, err := NewWithDerived(in, p, d); err == nil {
		t.Error("mismatched derived shape accepted")
	}
}
