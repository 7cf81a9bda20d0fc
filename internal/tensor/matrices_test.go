package tensor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// The matrix-recycling suite: an engine built on a closed engine's n×n
// matrices must solve exactly like one built on fresh ones, whatever the
// previous engine left behind. Run under -race, the concurrent test also
// covers the idle list's locking.

// drainIdle empties the idle list, so the next engine allocates fresh
// matrices.
func drainIdle() {
	idle.mu.Lock()
	idle.sets = nil
	idle.mu.Unlock()
}

// idleCount returns how often s is on the idle list.
func idleCount(s *matrices) int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	k := 0
	for _, wp := range idle.sets {
		if wp.Value() == s {
			k++
		}
	}
	return k
}

// sameN48 is a uniform 48-city instance: att48's size, other content.
func sameN48(t *testing.T) *tsp.Instance {
	t.Helper()
	in, err := tsp.Generate(tsp.GenSpec{Name: "u48", N: 48, Type: tsp.Euc2D, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// recycleAlgs builds and steps each tensor algorithm for the recycling
// tests; beta overrides the default β.
var recycleAlgs = []struct {
	name string
	run  func(in *tsp.Instance, beta float64) (*Engine, func(), error)
}{
	{"AS+2opt", func(in *tsp.Instance, beta float64) (*Engine, func(), error) {
		p := aco.DefaultParams()
		p.Ants, p.Beta, p.Workers = 12, beta, 2
		e, err := New(in, p)
		if err != nil {
			return nil, nil, err
		}
		return e, func() { e.IterateWithLocalSearch(aco.FullProbabilistic) }, nil
	}},
	{"ACS", func(in *tsp.Instance, beta float64) (*Engine, func(), error) {
		p := aco.DefaultACSParams()
		p.Beta, p.Workers = beta, 2
		a, err := NewACS(in, p, nil)
		if err != nil {
			return nil, nil, err
		}
		return a.Engine, a.Iterate, nil
	}},
	{"MMAS", func(in *tsp.Instance, beta float64) (*Engine, func(), error) {
		p := aco.DefaultMMASParams()
		p.Ants, p.Beta, p.Workers, p.BestEvery = 12, beta, 2, 2
		m, err := NewMMAS(in, p, nil)
		if err != nil {
			return nil, nil, err
		}
		return m.Engine, func() { m.Iterate(aco.NNListConstruction) }, nil
	}},
}

// solveSnapshot steps a built engine four times and snapshots it.
func solveSnapshot(e *Engine, step func()) runSnapshot {
	for i := 0; i < 4; i++ {
		step()
	}
	return snapshot(e, nil)
}

// runDiff names the first observable in which two runs differ, or "".
func runDiff(got, want runSnapshot) string {
	switch {
	case got.bestLen != want.bestLen:
		return fmt.Sprintf("best length %d, want %d", got.bestLen, want.bestLen)
	case !reflect.DeepEqual(got.best, want.best):
		return "best tour"
	case !reflect.DeepEqual(got.tours, want.tours):
		return "ant tours"
	case !reflect.DeepEqual(got.lengths, want.lengths):
		return "ant lengths"
	case !reflect.DeepEqual(got.tau, want.tau):
		return "pheromone matrix"
	}
	return ""
}

// TestRecycledMatricesMatchFresh: for each algorithm, an engine built on a
// recycled matrix set gives the tours, lengths, τ and best tour of one
// built on a fresh set, in four cases of what the set held: the same
// instance and β, another instance of the same n, another β, and the
// matrices of an AS engine on the same instance and β that panicked
// between its deposit scatter and its sweep (deposit sums left in the
// weights).
func TestRecycledMatricesMatchFresh(t *testing.T) {
	att, other := tsp.MustLoadBenchmark("att48"), sameN48(t)
	const beta = 2.0
	cases := []struct {
		name     string
		in       *tsp.Instance
		beta     float64
		panicked bool
	}{
		{"same instance and beta", att, beta, false},
		{"other instance", other, beta, false},
		{"other beta", att, 5, false},
		{"panicked update", att, beta, true},
	}
	for _, alg := range recycleAlgs {
		drainIdle()
		e, step, err := alg.run(att, beta)
		if err != nil {
			t.Fatal(err)
		}
		want := solveSnapshot(e, step)
		e.Close()
		for _, c := range cases {
			t.Run(alg.name+"/"+c.name, func(t *testing.T) {
				drainIdle()
				s := usedSet(t, c.in, c.beta, c.panicked)
				e, step, err := alg.run(att, beta)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if e.mats != s {
					t.Fatal("engine did not take the idle set")
				}
				if d := runDiff(solveSnapshot(e, step), want); d != "" {
					t.Fatalf("recycled set: %s differs from the fresh set's run", d)
				}
			})
		}
	}
}

// usedSet runs an AS engine on in at β for two iterations, optionally
// panicking inside a third update after the deposit scatter, which leaves
// the deposit sums in the set's weight matrix, closes it and returns its
// matrix set, now idle.
func usedSet(t *testing.T, in *tsp.Instance, beta float64, panicked bool) *matrices {
	t.Helper()
	e, step, err := recycleAlgs[0].run(in, beta)
	if err != nil {
		t.Fatal(err)
	}
	step()
	step()
	s := e.mats
	if panicked {
		e.ConstructTours(aco.FullProbabilistic)
		// A truncated η^β view makes the sweep panic before it touches a
		// cell; the set itself keeps its full matrices.
		e.etaBeta = e.etaBeta[:0:0]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("update did not panic")
				}
			}()
			e.UpdatePheromone()
		}()
		if !sameBits(s.weight, refDeposits(e)) {
			t.Fatal("the panicked update did not leave the deposit sums in the weights; the case is vacuous")
		}
	}
	e.Close()
	if idleCount(s) != 1 {
		t.Fatal("Close did not put the set on the idle list")
	}
	return s
}

// TestRecycledScratchFitsEngine: a set carries its construction scratch
// to the next engine of its n, which may run more workers or a wider NN
// list than the engine that left it; each rule then solves exactly as on
// a fresh set.
func TestRecycledScratchFitsEngine(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	run := func(nn, workers int, v aco.Variant) runSnapshot {
		p := aco.DefaultParams()
		p.Ants, p.NN, p.Workers = 9, nn, workers
		e, err := New(in, p)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 3; i++ {
			e.Iterate(v)
		}
		return snapshot(e, nil)
	}
	for _, v := range []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction} {
		drainIdle()
		want := run(20, 3, v)
		drainIdle()
		run(8, 1, aco.NNListConstruction) // leaves one worker's scratch, sized for nn = 8
		if d := runDiff(run(20, 3, v), want); d != "" {
			t.Errorf("variant %v on recycled scratch: %s differs from the fresh run", v, d)
		}
	}
}

// TestCloseTwiceRecyclesOnce: a second Close neither puts the set on the
// idle list again nor panics, and a closed engine exposes no matrices.
func TestCloseTwiceRecyclesOnce(t *testing.T) {
	drainIdle()
	p := aco.DefaultParams()
	p.Ants = 8
	e, err := New(tsp.MustLoadBenchmark("att48"), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Iterate(aco.NNListConstruction)
	s := e.mats
	e.Close()
	e.Close()
	if k := idleCount(s); k != 1 {
		t.Fatalf("set on the idle list %d times after two Closes, want once", k)
	}
	if e.Tau() != nil || e.weight != nil || e.etaBeta != nil {
		t.Fatal("closed engine still references the recycled matrices")
	}
	if e.BestTour == nil || e.BestLen <= 0 {
		t.Fatal("Close dropped the best tour")
	}
	a, err := New(tsp.MustLoadBenchmark("att48"), p)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(tsp.MustLoadBenchmark("att48"), p)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.mats == b.mats {
		t.Fatal("two open engines share one matrix set")
	}
}

// TestConcurrentRecyclingMatchesSerial: goroutines solving distinct
// instances of one n, three times each, hand matrix sets to each other
// through the idle list; every solve must equal its serial run.
func TestConcurrentRecyclingMatchesSerial(t *testing.T) {
	const solvers, rounds = 4, 3
	ins := make([]*tsp.Instance, solvers)
	for i := range ins {
		in, err := tsp.Generate(tsp.GenSpec{Name: fmt.Sprint("c", i), N: 60, Type: tsp.Euc2D, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = in
	}
	solve := func(in *tsp.Instance) (runSnapshot, error) {
		e, step, err := recycleAlgs[0].run(in, 2)
		if err != nil {
			return runSnapshot{}, err
		}
		defer e.Close()
		for i := 0; i < 3; i++ {
			step()
		}
		return snapshot(e, nil), nil
	}
	want := make([]runSnapshot, solvers)
	for i, in := range ins {
		drainIdle()
		s, err := solve(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	drainIdle()
	got := make([][]runSnapshot, solvers)
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, err := solve(ins[i])
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], s)
			}
		}(i)
	}
	wg.Wait()
	for i := range ins {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for r, s := range got[i] {
			if d := runDiff(s, want[i]); d != "" {
				t.Errorf("instance %d round %d: %s differs from the serial run", i, r, d)
			}
		}
	}
}
