package sched

import (
	"sync"
	"sync/atomic"

	"antgpu/internal/metrics"
	"antgpu/internal/tsp"
)

// cacheKey identifies one derived-data value: the instance content hash
// (tsp.Instance.ContentHash — name and comment excluded, so two loads of
// the same file share) and the effective NN list width.
type cacheKey struct {
	hash uint64
	nn   int
}

// cacheEntry holds one key's Derived: nil until a request computes C^nn,
// then list-less or with the NN lists, as the requests so far needed.
// Concurrent requesters of a key serialise on the entry mutex, so each
// part is computed once and shared. A computation that panics leaves the
// entry as it was (the assignment never happens) and propagates to the
// caller that triggered it; the next request for the key retries.
type cacheEntry struct {
	mu sync.Mutex
	d  *tsp.Derived
}

// Cache memoizes instance-derived read-only data across solves. It is safe
// for concurrent use. The first request for a (content hash, nn) key
// computes C^nn, with the NN lists when it asks for them (a miss); the
// first request with lists for a key computed without them attaches the
// lists (also a miss) to a copy, so values handed out earlier never
// change; every other request, concurrent ones included, shares the
// entry's value (a hit). Values are retained for the cache's lifetime — a
// pool holds one entry per distinct instance/nn pair: a few words for an
// entry no solve has asked lists of, Θ(n·nn) bytes once one has (the
// int32 NN list, 60 KB at n = 500 and nn = 30), far below the Θ(n²) bytes
// of the instance matrix and of one solve's engine. Nothing is evicted, so
// an unbounded stream of distinct instances grows the cache without bound.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64

	// hitCount and missCount count the same lookups as hits and misses,
	// as each one happens, on a metrics registry (no-ops when zero).
	hitCount, missCount metrics.Counter

	// derive and attach compute a miss: tsp.Instance.Derive and
	// tsp.Derived.WithLists, which tests replace to count or fail them.
	derive func(in *tsp.Instance, nn int, lists bool) *tsp.Derived
	attach func(d *tsp.Derived, in *tsp.Instance) *tsp.Derived
}

// NewCache returns an empty derived-data cache that also adds every hit
// and miss to the given counters as it happens; zero-valued counters count
// nothing.
func NewCache(hits, misses metrics.Counter) *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry),
		hitCount: hits, missCount: misses,
		derive: (*tsp.Instance).Derive, attach: (*tsp.Derived).WithLists}
}

// Derived returns the shared derived data of the instance at NN width nn,
// with the NN lists when lists is set and with or without them otherwise,
// computing what the entry lacks. The result is shared across callers and
// must be treated as read-only. A nil cache computes fresh data every call
// (counting nothing), so call sites need no nil checks.
func (c *Cache) Derived(in *tsp.Instance, nn int, lists bool) *tsp.Derived {
	if c == nil {
		return in.Derive(nn, lists)
	}
	nn = in.EffectiveNN(nn)
	k := cacheKey{hash: in.ContentHash(), nn: nn}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &cacheEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.d == nil:
		c.miss()
		e.d = c.derive(in, nn, lists)
	case lists && e.d.List == nil:
		c.miss()
		e.d = c.attach(e.d, in)
	default:
		c.hits.Add(1)
		c.hitCount.Inc()
	}
	return e.d
}

func (c *Cache) miss() {
	c.misses.Add(1)
	c.missCount.Inc()
}

// Stats returns the cumulative hit and miss counts. A miss is a Derived
// call that had to compute (C^nn, or the lists of an entry without them),
// a hit any other call, including one that waited on an in-flight
// computation.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct derived-data entries resident.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
