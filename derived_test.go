package antgpu_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
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

// TestCacheListsPerCombination: on every pair, the full and the NN-list
// rule, each without and (on AS) with local search, solve twice each
// through one pool, in turn. Every pooled result equals the standalone
// solve. The pool's first request computes C^nn (a miss). The first
// request that reads the NN lists (any gpu pair, local search, the NN-list
// rule, ACS) attaches them (a miss) when no earlier request read them.
// Every other request is a hit, so the second request of every
// combination builds nothing.
func TestCacheListsPerCombination(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, alg := range []antgpu.Algorithm{antgpu.AlgorithmAS, antgpu.AlgorithmACS, antgpu.AlgorithmMMAS,
			antgpu.AlgorithmEAS, antgpu.AlgorithmRank} {
			if b == antgpu.BackendTensor && (alg == antgpu.AlgorithmEAS || alg == antgpu.AlgorithmRank) {
				continue
			}
			t.Run(b.String()+"/"+alg.String(), func(t *testing.T) {
				pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
				var requests, misses int64
				derived, withLists := false, false
				for _, ls := range []bool{false, true} {
					if ls && alg != antgpu.AlgorithmAS {
						continue
					}
					for _, v := range []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction} {
						opts := antgpu.SolveOptions{Backend: b, Algorithm: alg, Variant: v, LocalSearch: ls,
							Iterations: 3, Params: antgpu.Params{Seed: 5, Workers: 1}}
						reads := b == antgpu.BackendGPU || ls || v == aco.NNListConstruction ||
							alg == antgpu.AlgorithmACS
						want, err := antgpu.Solve(in, opts)
						if err != nil {
							t.Fatalf("%v, local search %t: standalone: %v", v, ls, err)
						}
						for i := 0; i < 2; i++ {
							got, err := pool.Submit(context.Background(), antgpu.SolveRequest{Instance: in, Options: opts}, nil)
							if err != nil {
								t.Fatalf("%v, local search %t: pool solve %d: %v", v, ls, i, err)
							}
							if got.BestLen != want.BestLen || !reflect.DeepEqual(got.BestTour, want.BestTour) ||
								(b != antgpu.BackendTensor && got.SimulatedSeconds != want.SimulatedSeconds) {
								t.Errorf("%v, local search %t: pool solve %d: length %d, want the standalone %d with the same tour and seconds",
									v, ls, i, got.BestLen, want.BestLen)
							}
							requests++
							if !derived || (reads && !withLists) {
								misses++
							}
							derived, withLists = true, withLists || reads
							if hits, gotMisses := pool.CacheStats(); hits != requests-misses || gotMisses != misses {
								t.Errorf("%v, local search %t: after pool solve %d: cache %d hits / %d misses, want %d / %d",
									v, ls, i, hits, gotMisses, requests-misses, misses)
							}
						}
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
// what each distinct upload costs a long-running server. A full-rule
// tensor solve reads no NN lists, so its entry holds C^nn and a few words
// of bookkeeping; a solve with local search reads them, so its entry holds
// the n×nn int32 list as well. Neither holds anything n×n.
func TestCacheRetainedBytesPerUpload(t *testing.T) {
	const n, nn, uploads = 300, 30, 20
	for _, c := range []struct {
		name        string
		localSearch bool
		min, max    int64
	}{
		{"full rule", false, 0, 1 << 10},
		{"local search", true, n * nn * 4, n * n},
	} {
		pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
		solve := func(seed uint64) {
			in, err := tsp.Generate(tsp.GenSpec{Name: "upload", N: n, Type: tsp.Euc2D, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			opts := antgpu.SolveOptions{Backend: antgpu.BackendTensor, Iterations: 1, LocalSearch: c.localSearch,
				Params: antgpu.Params{Ants: 25, NN: nn, Seed: seed, Workers: 1}}
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
			t.Fatalf("%s: %d cache misses, want one per distinct upload (%d)", c.name, misses, uploads+1)
		}
		if per := grown / uploads; per < c.min || per >= c.max {
			t.Errorf("%s: live heap grew %d B per cached %d-city instance, want in [%d, %d) B",
				c.name, per, n, c.min, c.max)
		}
	}
}
