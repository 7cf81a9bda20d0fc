package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"antgpu/internal/tsp"
)

func TestRunAllJobsOnceInOrderSlots(t *testing.T) {
	const n = 50
	var ran [n]atomic.Int32
	errs := Run(context.Background(), n, 4, func(_ context.Context, i int) error {
		ran[i].Add(1)
		if i%7 == 3 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if len(errs) != n {
		t.Fatalf("got %d errors for %d jobs", len(errs), n)
	}
	for i := 0; i < n; i++ {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("job %d ran %d times", i, got)
		}
		if (i%7 == 3) != (errs[i] != nil) {
			t.Errorf("job %d: err = %v", i, errs[i])
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	gate := make(chan struct{})
	go func() {
		defer wg.Done()
		Run(context.Background(), 20, workers, func(_ context.Context, i int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return nil
		})
	}()
	for i := 0; i < 20; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeded %d workers", got, workers)
	}
}

func TestRunZeroJobs(t *testing.T) {
	errs := Run(context.Background(), 0, 4, func(_ context.Context, i int) error {
		t.Error("job ran for n = 0")
		return nil
	})
	if len(errs) != 0 {
		t.Errorf("got %d errors for 0 jobs", len(errs))
	}
}

func TestRunCancelledContextFailsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	errs := Run(ctx, 10, 1, func(ctx context.Context, i int) error {
		once.Do(func() {
			close(started)
			cancel()
		})
		return ctx.Err()
	})
	<-started
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled < 9 {
		t.Errorf("only %d/10 jobs observed the cancellation", canceled)
	}
}

func loadInstance(t *testing.T, name string) *tsp.Instance {
	t.Helper()
	in, err := tsp.LoadBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache()
	in := loadInstance(t, "att48")
	d1, err := c.Derived(in, 30)
	if err != nil || d1 == nil || d1.N != in.N() {
		t.Fatalf("bad derived data: %+v (err %v)", d1, err)
	}
	d2, _ := c.Derived(in, 30)
	if d1 != d2 {
		t.Error("second lookup did not share the cached derived data")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}

	// A different NN width is a different key.
	d3, _ := c.Derived(in, 10)
	if d3 == d1 {
		t.Error("nn = 10 shared the nn = 30 entry")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}

	// Same content under a different name still hits (content hash ignores
	// the name).
	clone, err := tsp.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Derived(clone, 30); got != d1 {
		t.Error("identical content under a second *Instance missed the cache")
	}
}

func TestCacheNilReceiverComputesFresh(t *testing.T) {
	var c *Cache
	in := loadInstance(t, "att48")
	d, err := c.Derived(in, 30)
	if err != nil || d == nil || d.N != in.N() {
		t.Fatalf("nil cache returned bad derived data: %+v (err %v)", d, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("nil cache reported traffic: %d / %d", hits, misses)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	in := loadInstance(t, "kroC100")
	const goroutines = 16
	results := make([]*tsp.Derived, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _ = c.Derived(in, 30)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different derived pointer", g)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Errorf("%d misses for one key, want 1 (singleflight)", misses)
	}
	if hits != goroutines-1 {
		t.Errorf("%d hits, want %d", hits, goroutines-1)
	}
}

// TestRunHookedObservesEveryJob: every job gets exactly one Start and one
// Done call, the reported queue depth and busy count stay within the
// scheduler's invariants, and job errors reach the Done hook.
func TestRunHookedObservesEveryJob(t *testing.T) {
	const n, workers = 40, 4
	var mu sync.Mutex
	starts := make(map[int]int)
	dones := make(map[int]int)
	boom := errors.New("boom")
	maxBusy := 0

	h := Hooks{
		Start: func(i, queued, busy int) {
			mu.Lock()
			defer mu.Unlock()
			starts[i]++
			if queued < 0 || queued >= n {
				t.Errorf("job %d: queued %d out of range", i, queued)
			}
			if busy < 1 || busy > workers {
				t.Errorf("job %d: busy %d out of [1, %d]", i, busy, workers)
			}
			if busy > maxBusy {
				maxBusy = busy
			}
		},
		Done: func(i int, err error, busy int) {
			mu.Lock()
			defer mu.Unlock()
			dones[i]++
			if busy < 0 || busy >= workers {
				t.Errorf("job %d: post-done busy %d out of [0, %d)", i, busy, workers)
			}
			if (i == 7) != (err == boom) {
				t.Errorf("job %d: Done err = %v", i, err)
			}
		},
	}
	// Jobs 0..workers-1 are picked up first, one per worker; a barrier
	// holds them in flight together so the busy gauge provably exceeds 1.
	var barrier sync.WaitGroup
	barrier.Add(workers)
	errs := RunHooked(context.Background(), n, workers, func(_ context.Context, i int) error {
		if i < workers {
			barrier.Done()
			barrier.Wait()
		}
		if i == 7 {
			return boom
		}
		return nil
	}, h)

	for i := 0; i < n; i++ {
		if starts[i] != 1 || dones[i] != 1 {
			t.Fatalf("job %d: %d starts, %d dones, want 1 and 1", i, starts[i], dones[i])
		}
	}
	if maxBusy != workers {
		t.Errorf("max busy %d, want all %d workers observed in flight", maxBusy, workers)
	}
	if !errors.Is(errs[7], boom) {
		t.Errorf("errs[7] = %v, want boom", errs[7])
	}
}

// Run with no hooks must not pay the hook bookkeeping; this just pins the
// delegation so a refactor can't fork the two paths apart.
func TestRunDelegatesToRunHooked(t *testing.T) {
	var ran atomic.Int32
	errs := Run(context.Background(), 5, 2, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 5 || len(errs) != 5 {
		t.Fatalf("ran %d jobs with %d errs, want 5 and 5", ran.Load(), len(errs))
	}
}

// TestCachePanicDoesNotPoisonEntry: a derived-data computation that panics
// must not leave a permanently nil entry behind. With the sync.Once-based
// entry this failed: the Once completed despite the panic, and every later
// request for the key got nil forever.
func TestCachePanicDoesNotPoisonEntry(t *testing.T) {
	c := NewCache()
	in := loadInstance(t, "att48")
	calls := 0
	c.compute = func(in *tsp.Instance, nn int) (*tsp.Derived, error) {
		calls++
		if calls == 1 {
			panic("transient failure")
		}
		return in.ComputeDerived(nn)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first Derived call swallowed the computation panic")
			}
		}()
		c.Derived(in, 30)
	}()

	d, err := c.Derived(in, 30)
	if err != nil || d == nil {
		t.Fatalf("entry poisoned: Derived returned %v, %v after an earlier panic", d, err)
	}
	if d.N != in.N() {
		t.Fatalf("retry returned bad derived data: %+v", d)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (panic then retry)", calls)
	}
	// The retried value is now cached like any other.
	if d2, _ := c.Derived(in, 30); d2 != d {
		t.Error("post-retry lookup did not share the cached value")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times after the shared lookup, want still 2", calls)
	}
}

// TestRunHookedCancelSkipsUndispatchedJobs: after a cancellation, the jobs
// that never started must fail fast with ctx.Err() without passing through
// the Start/Done hooks. The old scheduler dispatched every remaining index
// through the workers and fired Start (incrementing queue/busy telemetry)
// before checking the context, counting jobs as started that never ran.
func TestRunHookedCancelSkipsUndispatchedJobs(t *testing.T) {
	const n, workers = 50, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	running := make(chan struct{}, n)
	release := make(chan struct{})
	var starts, dones atomic.Int32
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		errs = RunHooked(ctx, n, workers, func(ctx context.Context, i int) error {
			running <- struct{}{}
			<-release
			return nil
		}, Hooks{
			Start: func(int, int, int) { starts.Add(1) },
			Done:  func(int, error, int) { dones.Add(1) },
		})
	}()

	// Wait for both workers to be inside a job, cancel, then let them finish.
	<-running
	<-running
	cancel()
	close(release)
	<-done

	if got := starts.Load(); got != workers {
		t.Errorf("Start hook fired %d times, want %d (cancelled jobs must not start)", got, workers)
	}
	if got := dones.Load(); got != workers {
		t.Errorf("Done hook fired %d times, want %d", got, workers)
	}
	ok, cancelled := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Errorf("unexpected job error: %v", err)
		}
	}
	if ok != workers || cancelled != n-workers {
		t.Errorf("got %d ok / %d cancelled, want %d / %d", ok, cancelled, workers, n-workers)
	}
}

func TestWorkerShare(t *testing.T) {
	cases := []struct{ procs, pool, want int }{
		{8, 4, 2}, // even split
		{8, 1, 8}, // single-slot pool keeps the machine
		{8, 3, 2}, // rounds down
		{2, 8, 1}, // oversubscribed pool floors at one core each
		{1, 1, 1},
		{0, 4, 1}, // degenerate inputs degrade to 1
		{4, 0, 1},
		{-3, -2, 1},
	}
	for _, c := range cases {
		if got := WorkerShare(c.procs, c.pool); got != c.want {
			t.Errorf("WorkerShare(%d, %d) = %d, want %d", c.procs, c.pool, got, c.want)
		}
	}
}
