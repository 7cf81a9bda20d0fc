package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"antgpu/internal/metrics"
	"antgpu/internal/tsp"
)

func loadInstance(t *testing.T, name string) *tsp.Instance {
	t.Helper()
	in, err := tsp.LoadBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache(metrics.Counter{}, metrics.Counter{})
	in := loadInstance(t, "att48")
	d1 := c.Derived(in, 30, true)
	if d1 == nil || d1.N != in.N() || d1.List == nil {
		t.Fatalf("bad derived data: %+v", d1)
	}
	d2 := c.Derived(in, 30, true)
	if d1 != d2 {
		t.Error("second lookup did not share the cached derived data")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}

	// A different NN width is a different key.
	d3 := c.Derived(in, 10, true)
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
	if got := c.Derived(clone, 30, true); got != d1 {
		t.Error("identical content under a second *Instance missed the cache")
	}
}

func TestCacheNilReceiverComputesFresh(t *testing.T) {
	var c *Cache
	in := loadInstance(t, "att48")
	for _, lists := range []bool{false, true} {
		d := c.Derived(in, 30, lists)
		if d == nil || d.N != in.N() || (d.List != nil) != lists {
			t.Fatalf("nil cache, lists %t: bad derived data %+v", lists, d)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("nil cache reported traffic: %d / %d", hits, misses)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(metrics.Counter{}, metrics.Counter{})
	in := loadInstance(t, "kroC100")
	const goroutines = 16
	results := make([]*tsp.Derived, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = c.Derived(in, 30, true)
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

// countingCache returns a cache whose derivations count how often they
// compute C^nn and the NN lists; the counters are atomic, so concurrent
// tests may read them after their goroutines have finished.
func countingCache() (c *Cache, cnn, lists *atomic.Int32) {
	c, cnn, lists = NewCache(metrics.Counter{}, metrics.Counter{}), new(atomic.Int32), new(atomic.Int32)
	c.derive = func(in *tsp.Instance, nn int, withLists bool) *tsp.Derived {
		cnn.Add(1)
		if withLists {
			lists.Add(1)
		}
		return in.Derive(nn, withLists)
	}
	c.attach = func(d *tsp.Derived, in *tsp.Instance) *tsp.Derived {
		lists.Add(1)
		return d.WithLists(in)
	}
	return c, cnn, lists
}

// TestCacheListsOnRequest: a key asked first without lists holds C^nn
// alone; the first request with lists attaches them to a copy (a miss),
// so C^nn and the lists are each computed once, the value the first
// caller got still has no lists, and every later request of either kind
// shares the value with lists (a hit).
func TestCacheListsOnRequest(t *testing.T) {
	c, cnn, lists := countingCache()
	in := loadInstance(t, "kroC100")
	want, _ := in.ComputeDerived(30)

	bare := c.Derived(in, 30, false)
	if bare.List != nil || bare.CNN != want.CNN || bare.N != want.N || bare.NN != want.NN {
		t.Fatalf("list-less value %+v, want C^nn %d and no lists", bare, want.CNN)
	}
	if got := c.Derived(in, 30, false); got != bare {
		t.Error("second list-less request did not share the entry")
	}
	full := c.Derived(in, 30, true)
	if !reflect.DeepEqual(full, want) {
		t.Errorf("value with lists differs from ComputeDerived")
	}
	if bare.List != nil {
		t.Error("attaching the lists changed the value an earlier caller holds")
	}
	for _, withLists := range []bool{true, false} {
		if got := c.Derived(in, 30, withLists); got != full {
			t.Errorf("request with lists %t after the attach did not share the value with lists", withLists)
		}
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 3 / 2", hits, misses)
	}
	if cnn.Load() != 1 || lists.Load() != 1 {
		t.Errorf("computed C^nn %d times and the lists %d times, want once each", cnn.Load(), lists.Load())
	}

	// A key asked with lists first computes both in one miss.
	c.Derived(in, 10, true)
	c.Derived(in, 10, false)
	if cnn.Load() != 2 || lists.Load() != 2 {
		t.Errorf("a with-lists miss computed C^nn %d and the lists %d times in all, want 2 and 2",
			cnn.Load(), lists.Load())
	}
}

// TestCacheConcurrentMixedRequests: concurrent requests for one key, half
// with lists and half without, compute C^nn once and the lists once, and
// everyone gets the same C^nn; every request with lists gets the one
// value with lists.
func TestCacheConcurrentMixedRequests(t *testing.T) {
	c, cnn, lists := countingCache()
	in := loadInstance(t, "kroC100")
	const goroutines = 16
	results := make([]*tsp.Derived, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = c.Derived(in, 30, g%2 == 1)
		}(g)
	}
	wg.Wait()
	full := c.Derived(in, 30, true)
	for g, d := range results {
		if d.CNN != full.CNN {
			t.Errorf("goroutine %d: C^nn %d, want %d", g, d.CNN, full.CNN)
		}
		if g%2 == 1 && d != full {
			t.Errorf("goroutine %d asked for lists and got another value", g)
		}
	}
	if cnn.Load() != 1 || lists.Load() != 1 {
		t.Errorf("computed C^nn %d times and the lists %d times, want once each", cnn.Load(), lists.Load())
	}
	if hits, misses := c.Stats(); hits+misses != goroutines+1 || misses < 1 || misses > 2 {
		t.Errorf("stats = %d hits / %d misses, want %d requests with 1 or 2 misses", hits, misses, goroutines+1)
	}
}

// TestCachePanicDoesNotPoisonEntry: a derived-data computation that panics
// must not leave a permanently nil entry behind. With the sync.Once-based
// entry this failed: the Once completed despite the panic, and every later
// request for the key got nil forever.
func TestCachePanicDoesNotPoisonEntry(t *testing.T) {
	c := NewCache(metrics.Counter{}, metrics.Counter{})
	in := loadInstance(t, "att48")
	calls := 0
	c.derive = func(in *tsp.Instance, nn int, lists bool) *tsp.Derived {
		calls++
		if calls == 1 {
			panic("transient failure")
		}
		return in.Derive(nn, lists)
	}
	mustPanic(t, func() { c.Derived(in, 30, true) })

	d := c.Derived(in, 30, true)
	if d == nil || d.N != in.N() || d.List == nil {
		t.Fatalf("entry poisoned: Derived returned %+v after an earlier panic", d)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (panic then retry)", calls)
	}
	// The retried value is now cached like any other.
	if d2 := c.Derived(in, 30, true); d2 != d {
		t.Error("post-retry lookup did not share the cached value")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times after the shared lookup, want still 2", calls)
	}
}

// TestCacheAttachPanicDoesNotPoisonEntry: a panic while attaching the
// lists leaves the entry's list-less value in place; list-less requests
// keep sharing it and the next request with lists attaches them.
func TestCacheAttachPanicDoesNotPoisonEntry(t *testing.T) {
	c := NewCache(metrics.Counter{}, metrics.Counter{})
	in := loadInstance(t, "att48")
	calls := 0
	c.attach = func(d *tsp.Derived, in *tsp.Instance) *tsp.Derived {
		calls++
		if calls == 1 {
			panic("transient failure")
		}
		return d.WithLists(in)
	}
	bare := c.Derived(in, 30, false)
	mustPanic(t, func() { c.Derived(in, 30, true) })
	if got := c.Derived(in, 30, false); got != bare {
		t.Fatalf("after the panic a list-less request got %+v, want the entry's list-less value", got)
	}
	full := c.Derived(in, 30, true)
	if full.List == nil || full.CNN != bare.CNN || calls != 2 {
		t.Fatalf("retry after the panic: %+v after %d attach calls, want lists and C^nn %d after 2",
			full, calls, bare.CNN)
	}
	if got := c.Derived(in, 30, true); got != full || calls != 2 {
		t.Error("the retried value with lists is not shared")
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("the computation's panic did not reach the caller")
		}
	}()
	f()
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
