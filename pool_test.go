package antgpu_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antgpu"
)

// seriesValue returns the value of a pool metric: the series whose status
// label is status, or the unlabelled series when status is empty; 0 when
// the series was never created.
func seriesValue(m *antgpu.Metrics, family, status string) float64 {
	f := m.Snapshot().Family(family)
	if f == nil {
		return 0
	}
	for _, s := range f.Series {
		if s.Labels["status"] == status {
			return s.Value
		}
	}
	return 0
}

// inFlight counts the requests between their first and last OnIteration
// event and keeps the peak. A request counts from its first event, which
// holds it there for a while so that any other solve the pool lets run at
// the same time overlaps it, until its last event.
type inFlight struct {
	mu        sync.Mutex
	now, peak int
}

func (f *inFlight) hook(iterations int) func(antgpu.IterationEvent) {
	return func(ev antgpu.IterationEvent) {
		switch ev.Iteration {
		case 1:
			f.mu.Lock()
			f.now++
			f.peak = max(f.peak, f.now)
			f.mu.Unlock()
			time.Sleep(10 * time.Millisecond)
		case iterations:
			f.mu.Lock()
			f.now--
			f.mu.Unlock()
		}
	}
}

// TestConcurrentSolvesNeverExceedPoolWorkers: two concurrent SolveBatch
// calls and one Submit on one pool never run more than Workers solves at
// once. Workers bounds every solve of a pool, whichever call made it.
func TestConcurrentSolvesNeverExceedPoolWorkers(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 2
	for _, workers := range []int{1, 2} {
		var f inFlight
		req := func(seed uint64) antgpu.SolveRequest {
			return antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
				Iterations: iterations, Params: antgpu.Params{Seed: seed},
				OnIteration: f.hook(iterations)}}
		}
		pool := antgpu.NewPool(antgpu.PoolOptions{Workers: workers})
		var wg sync.WaitGroup
		reps := make([]*antgpu.BatchReport, 2)
		for b := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[b], _ = pool.SolveBatch(context.Background(),
					[]antgpu.SolveRequest{req(1), req(2), req(3)})
			}()
		}
		_, submitErr := pool.Submit(context.Background(), req(4), nil)
		wg.Wait()

		if submitErr != nil {
			t.Fatalf("workers %d: Submit: %v", workers, submitErr)
		}
		for b, rep := range reps {
			if rep.Errs() != 0 {
				t.Fatalf("workers %d: batch %d had %d failed requests", workers, b, rep.Errs())
			}
		}
		if f.peak > workers {
			t.Errorf("workers %d: %d solves ran at once", workers, f.peak)
		}
	}
}

// TestCacheAndMetricsUntouchedByCancelledSubmit: a Submit whose context is
// already cancelled returns ctx.Err() without taking a worker slot: it
// never calls started, derives nothing and counts no request.
func TestCacheAndMetricsUntouchedByCancelledSubmit(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	reg := antgpu.NewMetrics()
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1, Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{Iterations: 1}}
	var started atomic.Int32
	for i := 0; i < 200; i++ {
		if _, err := pool.Submit(ctx, req, func() { started.Add(1) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := started.Load(); n != 0 {
		t.Errorf("started called %d times", n)
	}
	if hits, misses := pool.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cache counted %d hits and %d misses", hits, misses)
	}
	for _, status := range []string{"ok", "error"} {
		if v := seriesValue(reg, "antgpu_pool_requests_total", status); v != 0 {
			t.Errorf("antgpu_pool_requests_total{status=%q} = %v, want 0", status, v)
		}
	}
}

// TestSolveBatchOneWorkerRunsInRequestOrder: a one-worker pool picks a
// batch's requests up one at a time, each once, in request order, and
// submits the next only when the previous one is done, so none of them
// waits in the pool's queue.
func TestSolveBatchOneWorkerRunsInRequestOrder(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
	var order []int
	maxQueued := 0
	reqs := make([]antgpu.SolveRequest, 6)
	for i := range reqs {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
			Iterations: 1, Params: antgpu.Params{Seed: uint64(i + 1)},
			OnIteration: func(antgpu.IterationEvent) {
				order = append(order, i)
				maxQueued = max(maxQueued, pool.QueueDepth())
			}}}
	}
	rep, err := pool.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errs() != 0 {
		t.Fatalf("%d requests failed", rep.Errs())
	}
	if maxQueued != 0 {
		t.Errorf("%d requests waited in the queue of a one-worker pool", maxQueued)
	}
	if len(order) != len(reqs) {
		t.Fatalf("picked up %v, want each of %d requests once", order, len(reqs))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("picked up %v, want request order", order)
		}
	}
}

// TestSolveBatchCancelMidBatchFailsUnstartedRequests: cancelling the
// context while a one-worker batch runs its first request fails every
// request not yet picked up with context.Canceled, and none of them runs
// an iteration.
func TestSolveBatchCancelMidBatchFailsUnstartedRequests(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make([]int, 10)
	reqs := make([]antgpu.SolveRequest, len(events))
	for i := range reqs {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
			Iterations: 2, Params: antgpu.Params{Seed: uint64(i + 1)},
			OnIteration: func(antgpu.IterationEvent) {
				events[i]++
				cancel()
			}}}
	}
	rep, err := antgpu.SolveBatch(ctx, reqs, antgpu.PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if events[0] == 0 {
		t.Fatal("the first request never ran an iteration")
	}
	for i := 1; i < len(reqs); i++ {
		if !errors.Is(rep.Results[i].Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, rep.Results[i].Err)
		}
		if events[i] != 0 {
			t.Errorf("request %d ran %d iterations after the cancel", i, events[i])
		}
	}
}

// TestSolveBatchEmpty: a batch of no requests returns an empty report.
func TestSolveBatchEmpty(t *testing.T) {
	reg := antgpu.NewMetrics()
	rep, err := antgpu.SolveBatch(context.Background(), nil, antgpu.PoolOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 || rep.Errs() != 0 || rep.CacheHits != 0 || rep.CacheMisses != 0 ||
		rep.SimulatedSeconds != 0 || rep.Trace != nil {
		t.Errorf("empty batch report = %+v", rep)
	}
	for _, status := range []string{"ok", "error"} {
		if v := seriesValue(reg, "antgpu_pool_requests_total", status); v != 0 {
			t.Errorf("empty batch: antgpu_pool_requests_total{status=%q} = %v", status, v)
		}
	}
}

// TestSolveBatchMetrics: a batch counts every request once by outcome, and
// leaves nothing queued and no worker busy.
func TestSolveBatchMetrics(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	reqs := make([]antgpu.SolveRequest, n)
	for i := range reqs {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
			Iterations: 2, Params: antgpu.Params{Seed: uint64(i + 1)}}}
	}
	reqs[2].Options.Params.Rho = -1
	reg := antgpu.NewMetrics()
	rep, err := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Results[2].Err, antgpu.ErrInvalidParams) || rep.Errs() != 1 {
		t.Fatalf("invalid request error = %v with %d failed requests, want ErrInvalidParams and 1",
			rep.Results[2].Err, rep.Errs())
	}
	if ok := seriesValue(reg, "antgpu_pool_requests_total", "ok"); ok != n-1 {
		t.Errorf("antgpu_pool_requests_total{status=\"ok\"} = %v, want %d", ok, n-1)
	}
	if bad := seriesValue(reg, "antgpu_pool_requests_total", "error"); bad != 1 {
		t.Errorf("antgpu_pool_requests_total{status=\"error\"} = %v, want 1", bad)
	}
	for _, gauge := range []string{"antgpu_pool_queue_depth", "antgpu_pool_workers_busy"} {
		if reg.Snapshot().Family(gauge) == nil {
			t.Errorf("%s was never set", gauge)
		} else if v := seriesValue(reg, gauge, ""); v != 0 {
			t.Errorf("%s = %v after the batch, want 0", gauge, v)
		}
	}
}

// TestCacheCountersCountEveryLookup: the pool's cache counters count every
// derived-data lookup as it happens, whichever entry point made it, so
// they equal CacheStats after Submit calls alone and after two concurrent
// batches on the same pool.
func TestCacheCountersCountEveryLookup(t *testing.T) {
	att, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	kro, err := antgpu.LoadBenchmark("kroC100")
	if err != nil {
		t.Fatal(err)
	}
	reg := antgpu.NewMetrics()
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 2, Metrics: reg})
	req := func(in *antgpu.Instance) antgpu.SolveRequest {
		return antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{
			Iterations: 1, Params: antgpu.Params{Ants: 4}}}
	}
	check := func(when string, wantHits, wantMisses int64) {
		t.Helper()
		hits, misses := pool.CacheStats()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: CacheStats = %d hits / %d misses, want %d / %d", when, hits, misses, wantHits, wantMisses)
		}
		for _, c := range []struct {
			family string
			want   int64
		}{{"antgpu_pool_cache_hits_total", hits}, {"antgpu_pool_cache_misses_total", misses}} {
			if reg.Snapshot().Family(c.family) == nil {
				t.Fatalf("%s: %s is not exported", when, c.family)
			}
			if v := seriesValue(reg, c.family, ""); v != float64(c.want) {
				t.Errorf("%s: %s = %v, CacheStats %d", when, c.family, v, c.want)
			}
		}
	}

	for i := 0; i < 3; i++ {
		if _, err := pool.Submit(context.Background(), req(att), nil); err != nil {
			t.Fatal(err)
		}
	}
	check("three Submit calls", 2, 1)

	batches := [][]antgpu.SolveRequest{
		{req(att), req(kro), req(att), req(kro)},
		{req(kro), req(att), req(kro), req(kro)},
	}
	var wg sync.WaitGroup
	for _, reqs := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := pool.SolveBatch(context.Background(), reqs)
			if err != nil {
				t.Error(err)
			} else if rep.Errs() != 0 {
				t.Errorf("batch: %d failed requests", rep.Errs())
			}
		}()
	}
	wg.Wait()
	check("two concurrent batches", 9, 2)
}
