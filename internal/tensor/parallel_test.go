package tensor

import (
	"reflect"
	"sync/atomic"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/metrics"
	"antgpu/internal/tsp"
)

// The worker-count-invariance suite: the whole point of the parallel
// engine is that Workers is a throughput knob and nothing else. Every
// test here runs the same solve at several worker counts — including
// counts far above this host's core count — and demands bit-identical
// outcomes. Run under -race these tests also prove the ant shards and
// row shards never touch shared state.

var invarianceWorkers = []int{1, 2, 8}

type runSnapshot struct {
	tours   []int32
	lengths []int64
	best    []int32
	bestLen int64
	tau     []float32
	events  []metrics.IterationEvent
}

func snapshot(e *Engine, events []metrics.IterationEvent) runSnapshot {
	return runSnapshot{
		tours:   append([]int32(nil), e.Tours...),
		lengths: append([]int64(nil), e.Lengths...),
		best:    append([]int32(nil), e.BestTour...),
		bestLen: e.BestLen,
		tau:     append([]float32(nil), e.tau...),
		events:  events,
	}
}

func compareSnapshots(t *testing.T, label string, workers int, got, want runSnapshot) {
	t.Helper()
	if got.bestLen != want.bestLen {
		t.Fatalf("%s: best length at %d workers = %d, at 1 worker = %d", label, workers, got.bestLen, want.bestLen)
	}
	if !reflect.DeepEqual(got.best, want.best) {
		t.Fatalf("%s: best tour differs between %d workers and 1 worker", label, workers)
	}
	if !reflect.DeepEqual(got.tours, want.tours) {
		t.Fatalf("%s: ant tours differ between %d workers and 1 worker", label, workers)
	}
	if !reflect.DeepEqual(got.lengths, want.lengths) {
		t.Fatalf("%s: ant lengths differ between %d workers and 1 worker", label, workers)
	}
	if !reflect.DeepEqual(got.tau, want.tau) {
		t.Fatalf("%s: pheromone matrices differ between %d workers and 1 worker", label, workers)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: convergence events differ between %d workers and 1 worker:\ngot %+v\nwant %+v",
			label, workers, got.events, want.events)
	}
}

// TestWorkerCountInvarianceAS runs AS (with the 2-opt pass, so both
// ant-sharded kernels execute) at 1, 2 and 8 workers and demands every
// observable — tours, lengths, best, trails, convergence events — be
// bit-identical.
func TestWorkerCountInvarianceAS(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 12

	run := func(workers int) runSnapshot {
		var events []metrics.IterationEvent
		e, err := NewWithOptions(in, p, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if e.Workers() != workers {
			t.Fatalf("resolved %d workers, requested %d", e.Workers(), workers)
		}
		e.Conv = metrics.NewConvergenceWithSink(nil, "att48", "as", "tensor", 0,
			func(ev metrics.IterationEvent) { events = append(events, ev) })
		for i := 0; i < 6; i++ {
			e.IterateWithLocalSearch(aco.NNListConstruction)
		}
		e.Conv.Flush()
		return snapshot(e, events)
	}

	want := run(1)
	for _, w := range invarianceWorkers[1:] {
		compareSnapshots(t, "AS+2opt", w, run(w), want)
	}
}

// TestWorkerCountInvarianceMMAS covers the MMAS fused
// evaporate+deposit+clamp sweep.
func TestWorkerCountInvarianceMMAS(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.MMASParams{Params: aco.DefaultParams(), BestEvery: 3, StagnationReset: 40}
	p.Params.Ants = 10

	run := func(workers int) runSnapshot {
		var events []metrics.IterationEvent
		m, err := NewMMASWithOptions(in, p, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		m.Conv = metrics.NewConvergenceWithSink(nil, "att48", "mmas", "tensor", 0,
			func(ev metrics.IterationEvent) { events = append(events, ev) })
		for i := 0; i < 6; i++ {
			m.Iterate(aco.NNListConstruction)
		}
		m.Conv.Flush()
		return snapshot(m.Engine, events)
	}

	want := run(1)
	for _, w := range invarianceWorkers[1:] {
		compareSnapshots(t, "MMAS", w, run(w), want)
	}
}

// TestWorkerCountInvarianceACS pins that ACS — whose construction is
// deliberately serial (sequential local-update semantics) — still runs
// its row-sharded kernels correctly and stays invariant.
func TestWorkerCountInvarianceACS(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.ACSParams{Params: aco.DefaultParams(), Q0: 0.9, Xi: 0.1}
	p.Params.Ants = 10

	run := func(workers int) runSnapshot {
		var events []metrics.IterationEvent
		a, err := NewACSWithOptions(in, p, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		a.Conv = metrics.NewConvergenceWithSink(nil, "att48", "acs", "tensor", 0,
			func(ev metrics.IterationEvent) { events = append(events, ev) })
		for i := 0; i < 6; i++ {
			a.Iterate()
		}
		a.Conv.Flush()
		return snapshot(a.Engine, events)
	}

	want := run(1)
	for _, w := range invarianceWorkers[1:] {
		compareSnapshots(t, "ACS", w, run(w), want)
	}
}

// TestCheckpointAcrossWorkerCounts moves a checkpoint between engines of
// different worker counts: a run checkpointed at 8 workers and resumed at
// 1 must land exactly where an uninterrupted 2-worker run lands — worker
// count is not part of the evolving state.
func TestCheckpointAcrossWorkerCounts(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 12

	mk := func(workers int) *Engine {
		e, err := NewWithOptions(in, p, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}

	wide := mk(8)
	for i := 0; i < 4; i++ {
		wide.Iterate(aco.NNListConstruction)
	}
	cp := wide.Checkpoint()

	narrow := mk(1)
	if err := narrow.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		narrow.Iterate(aco.NNListConstruction)
	}

	straight := mk(2)
	for i := 0; i < 8; i++ {
		straight.Iterate(aco.NNListConstruction)
	}

	if narrow.BestLen != straight.BestLen {
		t.Fatalf("resumed best %d, uninterrupted best %d", narrow.BestLen, straight.BestLen)
	}
	if !reflect.DeepEqual(narrow.tau, straight.tau) {
		t.Fatal("trails diverged after a cross-worker-count checkpoint restore")
	}
	if !reflect.DeepEqual(narrow.Tours, straight.Tours) {
		t.Fatal("tours diverged after a cross-worker-count checkpoint restore")
	}
}

// TestConcurrentTwoOptScratchRegression is the regression guard for the
// shared-scratch data race: 2-opt once kept a single engine-level pos/dlb
// pair, which concurrent ant shards would have corrupted. The engine must
// hold one scratch per worker, and a multi-worker local-search pass under
// -race must come up clean.
func TestConcurrentTwoOptScratchRegression(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	p := aco.DefaultParams()
	p.Ants = 16

	e, err := NewWithOptions(in, p, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.IterateWithLocalSearch(aco.NNListConstruction)
	}
	if len(e.ls) != e.Workers() {
		t.Fatalf("2-opt scratch sets = %d, want one per worker (%d)", len(e.ls), e.Workers())
	}
	if len(e.cs) != e.Workers() {
		t.Fatalf("construction scratch sets = %d, want one per worker (%d)", len(e.cs), e.Workers())
	}
	for w := 1; w < e.Workers(); w++ {
		if &e.ls[0].pos[0] == &e.ls[w].pos[0] || &e.cs[0].mask[0] == &e.cs[w].mask[0] {
			t.Fatalf("worker %d aliases worker 0's scratch", w)
		}
	}
	for ant := 0; ant < e.m; ant++ {
		if err := in.ValidTour(e.Tours[ant*e.n : (ant+1)*e.n]); err != nil {
			t.Fatalf("ant %d tour invalid after concurrent 2-opt: %v", ant, err)
		}
	}
}

// TestWorkerResolution pins the knob precedence: Options.Workers beats
// Params.Workers beats GOMAXPROCS.
func TestWorkerResolution(t *testing.T) {
	in := dyadicInstance(t)
	p := dyadicParams()

	e, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d, want >= 1", e.Workers())
	}

	p.Workers = 3
	e2, err := New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Workers() != 3 {
		t.Fatalf("Params.Workers=3 resolved to %d", e2.Workers())
	}

	e3, err := NewWithOptions(in, p, nil, Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Workers() != 5 {
		t.Fatalf("Options.Workers=5 resolved to %d", e3.Workers())
	}

	p.Workers = -1
	if _, err := New(in, p); err == nil {
		t.Fatal("negative Workers passed validation")
	}
}

// TestWorkerPanicSurfacesOnCaller: a panic on a pool goroutine must reach
// the engine's caller — where the facade's recover turns it into one
// failed solve — instead of killing the process, and only after every
// other worker has finished its shard; the engine must stay usable
// afterwards. Ant 0 panics on the calling goroutine itself; the last ant
// belongs to the last pool goroutine.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Ants = 12
	for _, workers := range []int{2, 8} {
		e, err := NewWithOptions(in, p, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []int{e.m - 1, 0} {
			// Every ant but those from bad to the end of its shard completes.
			want := 0
			for w := 0; w < workers; w++ {
				if lo, hi := shard(e.m, workers, w); bad >= lo && bad < hi {
					want = e.m - (hi - bad)
				}
			}
			var done atomic.Int32
			got := func() (v any) {
				defer func() { v = recover() }()
				e.forAnts(func(w, ant int) {
					if ant == bad {
						panic("injected")
					}
					done.Add(1)
				})
				return nil
			}()
			if got != "injected" {
				t.Fatalf("%d workers, ant %d: recovered %v on the caller, want the injected panic", workers, bad, got)
			}
			if n := int(done.Load()); n != want {
				t.Fatalf("%d workers, ant %d: %d ants done when the panic surfaced, want %d", workers, bad, n, want)
			}
			e.ConstructTours(aco.FullProbabilistic)
			for ant := 0; ant < e.m; ant++ {
				if err := in.ValidTour(e.Tours[ant*e.n : (ant+1)*e.n]); err != nil {
					t.Fatalf("%d workers: ant %d after the panic: %v", workers, ant, err)
				}
			}
		}
		e.Close()
	}
}
