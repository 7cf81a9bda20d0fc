package antgpu_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"antgpu"
	"antgpu/internal/tsp"
)

// wideInstance is a 40-city EUC_2D instance spread over 5·10^7 units, so
// most of its distances exceed the exact-float32 limit 2^24.
func wideInstance(t *testing.T) *antgpu.Instance {
	t.Helper()
	in, err := tsp.Generate(tsp.GenSpec{Name: "wide", N: 40, Type: tsp.Euc2D, Seed: 7, Width: 5e7})
	if err != nil {
		t.Fatal(err)
	}
	if in.CheckDistF32() == nil {
		t.Fatal("wide instance stays within the exact-float32 range")
	}
	return in
}

// TestF32PrecisionRefusedOnGPU: every gpu entry point refuses an instance
// beyond the exact-float32 range with tsp.ErrF32Precision — a standalone
// solve, a pool solve (whose derived data comes from the shared cache) and
// the island runtime.
func TestF32PrecisionRefusedOnGPU(t *testing.T) {
	in := wideInstance(t)
	gpu := antgpu.SolveOptions{Backend: antgpu.BackendGPU, Iterations: 2}
	if _, err := antgpu.Solve(in, gpu); !errors.Is(err, tsp.ErrF32Precision) {
		t.Errorf("Solve: %v, want tsp.ErrF32Precision", err)
	}
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
	req := antgpu.SolveRequest{Instance: in, Options: gpu}
	if _, err := pool.Submit(context.Background(), req, nil); !errors.Is(err, tsp.ErrF32Precision) {
		t.Errorf("Pool.Submit: %v, want tsp.ErrF32Precision", err)
	}
	if _, err := antgpu.SolveIslands(in, antgpu.IslandOptions{Islands: 2, Iterations: 2}); !errors.Is(err, tsp.ErrF32Precision) {
		t.Errorf("SolveIslands: %v, want tsp.ErrF32Precision", err)
	}
}

// TestF32PrecisionHostBackendsShareCache: the host engines score tours in
// exact int64, so an instance beyond the exact-float32 range solves on cpu
// and tensor, through the pool's cache as well as standalone: the second
// pool solve hits the cache, and both match the standalone solve.
func TestF32PrecisionHostBackendsShareCache(t *testing.T) {
	in := wideInstance(t)
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendTensor} {
		opts := antgpu.SolveOptions{Backend: b, Iterations: 3, Params: antgpu.Params{Seed: 3, Workers: 1}}
		want, err := antgpu.Solve(in, opts)
		if err != nil {
			t.Fatalf("%v standalone: %v", b, err)
		}
		pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
		for i := 0; i < 2; i++ {
			got, err := pool.Submit(context.Background(), antgpu.SolveRequest{Instance: in, Options: opts}, nil)
			if err != nil {
				t.Fatalf("%v pool solve %d: %v", b, i, err)
			}
			if got.BestLen != want.BestLen || !reflect.DeepEqual(got.BestTour, want.BestTour) {
				t.Errorf("%v pool solve %d: length %d, want the standalone %d with the same tour",
					b, i, got.BestLen, want.BestLen)
			}
			if b == antgpu.BackendCPU && got.SimulatedSeconds != want.SimulatedSeconds {
				t.Errorf("%v pool solve %d: %v modelled seconds, want %v", b, i, got.SimulatedSeconds, want.SimulatedSeconds)
			}
		}
		if hits, misses := pool.CacheStats(); hits != 1 || misses != 1 {
			t.Errorf("%v: cache %d hits / %d misses, want 1 / 1", b, hits, misses)
		}
	}
}

// TestCacheServesEveryPair: every solvable (backend, algorithm) pair takes
// its NN lists and C^nn from the pool's derived-data cache. Two pooled
// requests of a pair count one miss and then one hit, and each matches the
// standalone solve's tour and length (and seconds, on the modelled cpu and
// simulated gpu backends). The tensor backend's EAS and Rank are rejected
// before the lookup, so they count no miss.
func TestCacheServesEveryPair(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, alg := range []antgpu.Algorithm{antgpu.AlgorithmAS, antgpu.AlgorithmACS, antgpu.AlgorithmMMAS,
			antgpu.AlgorithmEAS, antgpu.AlgorithmRank} {
			t.Run(b.String()+"/"+alg.String(), func(t *testing.T) {
				opts := antgpu.SolveOptions{Backend: b, Algorithm: alg, Iterations: 4,
					Params: antgpu.Params{Seed: 5, Workers: 1}}
				pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
				req := antgpu.SolveRequest{Instance: in, Options: opts}
				if b == antgpu.BackendTensor && (alg == antgpu.AlgorithmEAS || alg == antgpu.AlgorithmRank) {
					if _, err := pool.Submit(context.Background(), req, nil); err == nil {
						t.Fatal("pool solve of an untensorized algorithm succeeded")
					}
					if hits, misses := pool.CacheStats(); hits != 0 || misses != 0 {
						t.Errorf("cache %d hits / %d misses, want 0 / 0", hits, misses)
					}
					return
				}
				want, err := antgpu.Solve(in, opts)
				if err != nil {
					t.Fatalf("standalone: %v", err)
				}
				for i := 0; i < 2; i++ {
					got, err := pool.Submit(context.Background(), req, nil)
					if err != nil {
						t.Fatalf("pool solve %d: %v", i, err)
					}
					if got.BestLen != want.BestLen || !reflect.DeepEqual(got.BestTour, want.BestTour) {
						t.Errorf("pool solve %d: length %d, want the standalone %d with the same tour",
							i, got.BestLen, want.BestLen)
					}
					if b != antgpu.BackendTensor && got.SimulatedSeconds != want.SimulatedSeconds {
						t.Errorf("pool solve %d: %v seconds, want %v", i, got.SimulatedSeconds, want.SimulatedSeconds)
					}
					if hits, misses := pool.CacheStats(); hits != int64(i) || misses != 1 {
						t.Errorf("after pool solve %d: cache %d hits / %d misses, want %d / 1", i, hits, misses, i)
					}
				}
			})
		}
	}
}

// TestCacheSkipsInvalidRequests: a pooled request that fails its
// algorithm's own parameter checks (ACS's q0, MMAS's BestEvery, Rank's
// ant count) is rejected before the derived-data lookup on every backend,
// so it derives nothing and counts no miss.
func TestCacheSkipsInvalidRequests(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, opts := range []antgpu.SolveOptions{
			{Algorithm: antgpu.AlgorithmACS, ACS: antgpu.ACSParams{Q0: 2}},
			{Algorithm: antgpu.AlgorithmMMAS, MMAS: antgpu.MMASParams{BestEvery: -1}},
			{Algorithm: antgpu.AlgorithmRank, Params: antgpu.Params{Ants: 4}},
		} {
			opts.Backend, opts.Iterations = b, 2
			pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
			if _, err := pool.Submit(context.Background(), antgpu.SolveRequest{Instance: in, Options: opts}, nil); err == nil {
				t.Fatalf("%v %v: invalid request solved", b, opts.Algorithm)
			}
			if hits, misses := pool.CacheStats(); hits != 0 || misses != 0 {
				t.Errorf("%v %v: cache %d hits / %d misses, want 0 / 0", b, opts.Algorithm, hits, misses)
			}
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheRetainedBytesPerUpload: a pool's derived-data cache keeps one
// entry per distinct instance for its lifetime, so the entry's size is
// what each distinct upload costs a long-running server. An entry holds
// the n×nn NN list and C^nn; it must not hold anything n×n.
func TestCacheRetainedBytesPerUpload(t *testing.T) {
	const n, uploads = 300, 20
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
	solve := func(seed uint64) {
		in, err := tsp.Generate(tsp.GenSpec{Name: "upload", N: n, Type: tsp.Euc2D, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opts := antgpu.SolveOptions{Backend: antgpu.BackendTensor, Iterations: 1,
			Params: antgpu.Params{Ants: 25, Seed: seed, Workers: 1}}
		if _, err := pool.Submit(context.Background(), antgpu.SolveRequest{Instance: in, Options: opts}, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve(1000) // first-use allocations of the pool and the engine code
	before := liveHeap()
	for i := 1; i <= uploads; i++ {
		solve(uint64(i))
	}
	grown := liveHeap() - before
	if _, misses := pool.CacheStats(); misses != uploads+1 {
		t.Fatalf("%d cache misses, want one per distinct upload (%d)", misses, uploads+1)
	}
	if per := grown / uploads; per >= n*n {
		t.Errorf("live heap grew %d B per cached %d-city instance, want below n² = %d B",
			per, n, n*n)
	}
}
