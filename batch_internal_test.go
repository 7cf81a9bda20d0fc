package antgpu

import (
	"context"
	"errors"
	"testing"
)

// A bad NN width through the pool must fail with ErrInvalidParams on every
// backend, like Solve does, and be rejected before the derived-data
// lookup: deriving lists of a negative width panics, and the cache would
// count a miss and keep an entry for a key it never fills.
func TestPoolInvalidNNTypedError(t *testing.T) {
	in, err := LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendCPU, BackendGPU, BackendTensor} {
		p := NewPool(PoolOptions{Workers: 1})
		req := SolveRequest{Instance: in, Options: SolveOptions{
			Backend: b, Iterations: 1, Params: Params{NN: -3}}}
		if _, err := p.Submit(context.Background(), req, nil); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%v: Submit error = %v, want ErrInvalidParams", b, err)
		}
		rep, err := p.SolveBatch(context.Background(), []SolveRequest{req})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Results[0].Err; !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%v: SolveBatch error = %v, want ErrInvalidParams", b, err)
		}
		if hits, misses := p.CacheStats(); hits != 0 || misses != 0 || p.cache.Len() != 0 {
			t.Errorf("%v: cache hits %d, misses %d, entries %d after invalid requests, want none",
				b, hits, misses, p.cache.Len())
		}
	}
}
