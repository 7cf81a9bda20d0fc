package tensor

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// The matrix-recycling suite: an engine built on a closed engine's n×n
// matrices and buffers, or on an η^β table another engine filled, must
// solve exactly like one built on fresh ones, whatever the previous
// engine left behind. Run under -race, the concurrent tests also cover the
// locking of the idle list and of the η^β tables.

// drainIdle empties the idle list and the η^β table list, so the next
// engine allocates a fresh set and fills a fresh table. Engines still open
// keep their table, which no later engine can find.
func drainIdle() {
	idle.mu.Lock()
	idle.sets = nil
	idle.mu.Unlock()
	etas.mu.Lock()
	etas.tables = nil
	etas.mu.Unlock()
}

// holders returns how many engines hold t.
func holders(t *etaTable) int {
	etas.mu.Lock()
	defer etas.mu.Unlock()
	return t.holders
}

// freshEta returns η^β of in at β, filled into a buffer of its own.
func freshEta(in *tsp.Instance, beta float64) []float32 {
	eb := make([]float32, in.N()*in.N())
	fillEtaBeta(eb, in.Matrix(), in.N(), beta)
	return eb
}

// gcOff turns the garbage collector off until the test ends, so nothing
// the weak lists hold is reclaimed while the test inspects them.
func gcOff(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
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
// recycled matrix set and η^β table gives the tours, lengths, τ and best
// tour of one built on a fresh set and table, in five cases of what the
// closed engine left: a set and table of the same instance and β (the
// table is shared as it is), of another instance of the same n and of
// another β (the table is refilled); a set whose tours, lengths, wNN and
// construction and 2-opt scratch came from an engine with more ants, more
// workers and a wider NN list; and the matrices of an AS engine on the
// same instance and β that panicked between its deposit scatter and its
// sweep (deposit sums left in the weights).
func TestRecycledMatricesMatchFresh(t *testing.T) {
	gcOff(t)
	att, other := tsp.MustLoadBenchmark("att48"), sameN48(t)
	const beta = 2.0
	cases := []struct {
		name       string
		in         *tsp.Instance
		beta       float64
		panicked   bool
		wideBuffer bool
	}{
		{"same instance and beta", att, beta, false, false},
		{"other instance", other, beta, false, false},
		{"other beta", att, 5, false, false},
		{"buffers of more ants, workers and NN width", att, beta, false, true},
		{"panicked update", att, beta, true, false},
	}
	wantEta := freshEta(att, beta)
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
				s, tb := usedSet(t, c.in, c.beta, c.panicked, c.wideBuffer)
				e, step, err := alg.run(att, beta)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if e.mats != s {
					t.Fatal("engine did not take the idle set")
				}
				if e.eta != tb {
					t.Fatal("engine did not take the idle η^β table")
				}
				if !sameBits(e.etaBeta, wantEta) {
					t.Fatal("the η^β table differs from a fresh fill")
				}
				if d := runDiff(solveSnapshot(e, step), want); d != "" {
					t.Fatalf("recycled set: %s differs from the fresh set's run", d)
				}
			})
		}
	}
}

// usedSet runs an AS + 2-opt engine on in at β for two iterations,
// optionally panicking inside a third update after the deposit scatter,
// which leaves the deposit sums in the set's weight matrix, closes it and
// returns its matrix set and η^β table, now idle. With wide, the engine
// runs 30 ants on 4 workers on the NN rule with an NN width of 40, so the
// set's tours, lengths, wNN and scratch outsize those of every engine in
// recycleAlgs (at most 12 ants, 2 workers and NN width 30).
func usedSet(t *testing.T, in *tsp.Instance, beta float64, panicked, wide bool) (*matrices, *etaTable) {
	t.Helper()
	run := recycleAlgs[0].run
	if wide {
		run = func(in *tsp.Instance, beta float64) (*Engine, func(), error) {
			p := aco.DefaultParams()
			p.Ants, p.Beta, p.Workers, p.NN = 30, beta, 4, 40
			e, err := New(in, p)
			return e, func() { e.IterateWithLocalSearch(aco.NNListConstruction) }, err
		}
	}
	e, step, err := run(in, beta)
	if err != nil {
		t.Fatal(err)
	}
	step()
	step()
	s, tb := e.mats, e.eta
	if panicked {
		e.ConstructTours(aco.FullProbabilistic)
		// A truncated η^β view makes the sweep panic before it touches a
		// cell; the table itself keeps its full matrix.
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
	if wide && (len(s.tours) <= 12*in.N() || len(s.ls) <= 2 || len(s.wNN) <= 30*in.N() || len(s.scratch) <= 4) {
		t.Fatal("the wide engine did not leave larger buffers; the case is vacuous")
	}
	e.Close()
	if idleCount(s) != 1 {
		t.Fatal("Close did not put the set on the idle list")
	}
	if holders(tb) != 0 {
		t.Fatal("Close did not release the η^β table")
	}
	return s, tb
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
// idle list again, nor releases the η^β table a second time, nor panics,
// and a closed engine exposes no matrices, tours or lengths.
func TestCloseTwiceRecyclesOnce(t *testing.T) {
	drainIdle()
	p := aco.DefaultParams()
	p.Ants = 8
	in := tsp.MustLoadBenchmark("att48")
	e, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	sharer, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sharer.Close()
	e.Iterate(aco.NNListConstruction)
	s, tb := e.mats, e.eta
	if holders(tb) != 2 {
		t.Fatalf("table held by %d engines, want 2", holders(tb))
	}
	e.Close()
	e.Close()
	if k := idleCount(s); k != 1 {
		t.Fatalf("set on the idle list %d times after two Closes, want once", k)
	}
	if k := holders(tb); k != 1 {
		t.Fatalf("table held by %d engines after two Closes of one of its two holders, want 1", k)
	}
	if e.Tau() != nil || e.weight != nil || e.etaBeta != nil || e.wNN != nil {
		t.Fatal("closed engine still references the recycled matrices")
	}
	if e.Tours != nil || e.Lengths != nil {
		t.Fatal("closed engine still references the recycled tours and lengths")
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

// TestConcurrentRecyclingMatchesSerial: goroutines solving instances of
// one n, three times each, hand matrix sets and η^β tables to each other
// through the idle list and the table list, and the goroutines solving
// the same instance share its table; every solve must equal its serial
// run.
func TestConcurrentRecyclingMatchesSerial(t *testing.T) {
	const solvers, sharers, rounds = 4, 2, 3
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
	// Goroutine g solves instance g mod solvers, so the last sharers
	// goroutines solve the first instances alongside their own goroutines.
	got := make([][]runSnapshot, solvers+sharers)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, err := solve(ins[g%solvers])
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], s)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r, s := range got[g] {
			if d := runDiff(s, want[g%solvers]); d != "" {
				t.Errorf("goroutine %d (instance %d) round %d: %s differs from the serial run", g, g%solvers, r, d)
			}
		}
	}
}

// TestEtaTableSharing pins who shares an η^β table: the live engines of
// one *tsp.Instance and one β; not an engine of another β, nor one of
// another instance with equal content. A table goes to another instance
// of its n only once no engine holds it, and is then refilled for it.
func TestEtaTableSharing(t *testing.T) {
	gcOff(t)
	drainIdle()
	att := tsp.MustLoadBenchmark("att48")
	open := func(in *tsp.Instance, beta float64) *Engine {
		t.Helper()
		p := aco.DefaultParams()
		p.Ants, p.Beta = 8, beta
		e, err := New(in, p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	a, b := open(att, 2), open(att, 2)
	if &a.etaBeta[0] != &b.etaBeta[0] || a.eta != b.eta {
		t.Fatal("two live engines of one instance and β hold separate η^β tables")
	}
	if holders(a.eta) != 2 {
		t.Fatalf("shared table held by %d engines, want 2", holders(a.eta))
	}
	if c := open(att, 5); c.eta == a.eta {
		t.Fatal("an engine of another β shares the table")
	} else if !sameBits(c.etaBeta, freshEta(att, 5)) {
		t.Fatal("the other β's table differs from a fresh fill")
	}
	twin := tsp.MustLoadBenchmark("att48")
	if d := open(twin, 2); d.eta == a.eta {
		t.Fatal("an engine of an equal but distinct instance shares the table")
	} else if !sameBits(d.etaBeta, a.etaBeta) {
		t.Fatal("equal instances got different η^β")
	}

	shared := a.eta
	a.Close()
	other := sameN48(t)
	if x := open(other, 2); x.eta == shared {
		t.Fatal("a table one engine still holds was refilled for another instance")
	}
	b.Close()
	if holders(shared) != 0 {
		t.Fatalf("table held by %d engines after both closed", holders(shared))
	}
	third, err := tsp.Generate(tsp.GenSpec{Name: "u48b", N: 48, Type: tsp.Euc2D, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	y := open(third, 2)
	if y.eta != shared {
		t.Fatal("the table no engine holds was not refilled for another instance of its n")
	}
	if !sameBits(y.etaBeta, freshEta(third, 2)) {
		t.Fatal("the refilled table differs from a fresh fill")
	}
}

// TestConcurrentTakersSeeFilledTable: engines built at once on one new
// (instance, β) key all get the one table, and each finds it filled; under
// -race, a taker reading the table before the fill completed is a
// reported race.
func TestConcurrentTakersSeeFilledTable(t *testing.T) {
	in, err := tsp.Generate(tsp.GenSpec{Name: "fill", N: 500, Type: tsp.Euc2D, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := freshEta(in, 2)
	// The derived data is given, so the takers reach the table together.
	d, err := in.ComputeDerived(aco.DefaultParams().NN)
	if err != nil {
		t.Fatal(err)
	}
	const takers = 6
	engines := make([]*Engine, takers)
	errs := make([]error, takers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := aco.DefaultParams()
			p.Ants, p.Workers = 4, 1
			<-start
			e, err := NewWithDerived(in, p, d)
			if err != nil {
				errs[i] = err
				return
			}
			engines[i] = e
			if !sameBits(e.etaBeta, want) {
				errs[i] = fmt.Errorf("taker %d: η^β differs from a fresh fill", i)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, e := range engines {
		if e != nil {
			defer e.Close()
		}
		switch {
		case errs[i] != nil:
			t.Error(errs[i])
		case e.eta != engines[0].eta:
			t.Errorf("taker %d holds another table than taker 0", i)
		}
	}
}

// TestWarmEngineReusesBuffers: with the garbage collector off, a second
// engine of the same shape reuses the first one's tours, lengths, 2-opt
// scratch, wNN and touched backing arrays. The engines run the NN rule
// with 2-opt and α ≠ 1 on few ants (the sparse update), so every one of
// them is in use.
func TestWarmEngineReusesBuffers(t *testing.T) {
	gcOff(t)
	drainIdle()
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants, p.Alpha, p.Workers = 5, 1.5, 2
	type buffers struct {
		tours    *int32
		lengths  *int64
		pos      *int32
		dlb      *bool
		wNN      *float32
		touched  *touchedCell
		mats     *matrices
		eta      *etaTable
		etaFirst *float32
	}
	run := func() buffers {
		e, err := New(in, p)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 2; i++ {
			e.IterateWithLocalSearch(aco.NNListConstruction)
		}
		if e.touched == nil {
			t.Fatal("the sparse update did not run")
		}
		return buffers{&e.Tours[0], &e.Lengths[0], &e.ls[1].pos[0], &e.ls[1].dlb[0], &e.wNN[0], &e.touched[0],
			e.mats, e.eta, &e.etaBeta[0]}
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("the second engine did not reuse the first one's buffers:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestWarmJobAllocations guards the per-job allocations of engine-large's
// job, a pr1002 AS + 2-opt solve with 25 ants and two iterations, set up
// on the matrix set and η^β table a closed job of the same instance left:
// it allocates only the engine's small structs and its best tour, under
// 32 KB with either rule. CI's allocation-guard step runs it without
// -race, whose instrumentation adds allocations of its own.
func TestWarmJobAllocations(t *testing.T) {
	gcOff(t)
	in := tsp.MustLoadBenchmark("pr1002")
	p := aco.DefaultParams()
	p.Ants, p.Workers = 25, 2
	d, err := in.ComputeDerived(p.NN)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction} {
		job := func() {
			e, err := NewWithDerived(in, p, d)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 2; i++ {
				e.IterateWithLocalSearch(v)
			}
		}
		job()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job()
		runtime.ReadMemStats(&after)
		b := after.TotalAlloc - before.TotalAlloc
		if b >= 32<<10 {
			t.Errorf("variant %v: a warm job allocated %d B, want under 32 KB", v, b)
		}
		t.Logf("variant %v: a warm job allocated %d B", v, b)
	}
}

// refFillEtaBeta is the mirrored η^β fill: the upper triangle through
// powOf, each value written to its cell and down the column to its
// mirror, the diagonal left at zero.
func refFillEtaBeta(dist []int32, n int, beta float64) []float32 {
	eb := make([]float32, n*n)
	pow := powOf(beta)
	for i := 0; i < n; i++ {
		drow := dist[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			v := float32(pow(1.0 / (float64(drow[j]) + 0.1)))
			eb[i*n+j] = v
			eb[j*n+i] = v
		}
	}
	return eb
}

// TestFillEtaBetaMatchesMirroredFill: the index-order fill, into a buffer
// of NaNs so every cell must be written, equals the mirrored fill bit for
// bit, on three benchmarks over five β, and on an explicit instance with
// one distance-0 pair at β = 40, where η^β overflows to +Inf.
func TestFillEtaBetaMatchesMirroredFill(t *testing.T) {
	check := func(in *tsp.Instance, beta float64) []float32 {
		t.Helper()
		n := in.N()
		got := make([]float32, n*n)
		for i := range got {
			got[i] = float32(math.NaN())
		}
		fillEtaBeta(got, in.Matrix(), n, beta)
		if !sameBits(got, refFillEtaBeta(in.Matrix(), n, beta)) {
			t.Errorf("%s at β = %v: the fill differs from the mirrored fill", in.Name, beta)
		}
		return got
	}
	for _, name := range []string{"att48", "kroC100", "pcb442"} {
		in := tsp.MustLoadBenchmark(name)
		for _, beta := range []float64{0, 1, 2, 2.5, 5} {
			check(in, beta)
		}
	}
	const n = 6
	m := make([]int32, n*n)
	for i := range m {
		m[i] = int32(3 + i%7)
	}
	m[2*n+4] = 0
	in, err := tsp.NewExplicit("zero6", n, m)
	if err != nil {
		t.Fatal(err)
	}
	if eb := check(in, 40); !math.IsInf(float64(eb[2*n+4]), 1) || !math.IsInf(float64(eb[4*n+2]), 1) {
		t.Errorf("η^β of the distance-0 pair = %v, %v; want +Inf both ways", eb[2*n+4], eb[4*n+2])
	}
}
