package sched

import (
	"sync"
	"sync/atomic"

	"antgpu/internal/tsp"
)

// cacheKey identifies one derived-data value: the instance content hash
// (tsp.Instance.ContentHash — name and comment excluded, so two loads of
// the same file share) and the effective NN list width.
type cacheKey struct {
	hash uint64
	nn   int
}

// cacheEntry computes its Derived at most once successfully; concurrent
// requesters for the same key serialise on the entry mutex and share the
// result. A sync.Once would mark itself done even when the computation
// panics, leaving a permanently nil value behind — with the mutex, a panic
// propagates to the caller that triggered it, the done flag stays false,
// and the next request for the key retries the computation.
type cacheEntry struct {
	mu   sync.Mutex
	done bool
	d    *tsp.Derived
	err  error
}

// derived returns the entry's value, computing it under the entry lock if
// no previous computation finished. A returned error is cached alongside
// the value: the derivation is a deterministic function of the instance
// content, so recomputing cannot clear an error.
func (e *cacheEntry) derived(compute func() (*tsp.Derived, error)) (*tsp.Derived, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.d, e.err = compute()
		e.done = true
	}
	return e.d, e.err
}

// Cache memoizes instance-derived read-only data across solves. It is safe
// for concurrent use: the first request for a (content hash, nn) key
// computes the data (a miss), every later or concurrent request shares it
// (a hit). Values are retained for the cache's lifetime — a pool holds one
// entry per distinct instance/nn pair, Θ(n·nn) bytes each (the int32 NN
// list, 60 KB at n = 500 and nn = 30), far below the Θ(n²) bytes of the
// instance matrix and of one solve's engine. Nothing is evicted, so an
// unbounded stream of distinct instances grows the cache without bound.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    atomic.Int64
	misses  atomic.Int64

	// compute overrides tsp.Instance.ComputeDerived in tests (nil selects
	// the real computation).
	compute func(in *tsp.Instance, nn int) (*tsp.Derived, error)
}

// NewCache returns an empty derived-data cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// Derived returns the shared derived data of the instance at NN width nn,
// computing it on first use. The result is shared across callers and must
// be treated as read-only. A nil cache computes fresh data every call
// (counting nothing), so call sites need no nil checks. A computation that
// panics does not poison the key: the panic propagates to the caller and
// the next request for the same key recomputes.
func (c *Cache) Derived(in *tsp.Instance, nn int) (*tsp.Derived, error) {
	nn = in.EffectiveNN(nn)
	if c == nil {
		return in.ComputeDerived(nn)
	}
	k := cacheKey{hash: in.ContentHash(), nn: nn}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &cacheEntry{}
		c.entries[k] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	return e.derived(func() (*tsp.Derived, error) {
		if c.compute != nil {
			return c.compute(in, nn)
		}
		return in.ComputeDerived(nn)
	})
}

// Stats returns the cumulative hit and miss counts. A hit is any Derived
// call that found the key already present (including calls that waited on
// an in-flight computation); a miss is a call that had to compute.
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
