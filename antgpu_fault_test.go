package antgpu_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"antgpu"
)

// TestSolveWithFaultsMatchesFaultFree: the public-facade version of the
// headline guarantee — a GPU Solve with faults injected at a low rate
// returns byte-identical results to the fault-free Solve.
func TestSolveWithFaultsMatchesFaultFree(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	base := antgpu.SolveOptions{Iterations: 8, Backend: antgpu.BackendGPU}
	clean, err := antgpu.Solve(in, base)
	if err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.Faults = &antgpu.FaultPlan{Seed: 7, LaunchRate: 0.03, ECCRate: 0.02}
	res, err := antgpu.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("expected a recovery report when Faults is set")
	}
	if res.Recovery.Faults == 0 {
		t.Fatal("plan injected no fault; the test is vacuous")
	}
	if res.Recovery.Degraded {
		t.Fatalf("degraded at low fault rate: %s", res.Recovery)
	}
	if res.BestLen != clean.BestLen {
		t.Fatalf("BestLen %d under faults, %d fault-free (%s)", res.BestLen, clean.BestLen, res.Recovery)
	}
	for i := range res.BestTour {
		if res.BestTour[i] != clean.BestTour[i] {
			t.Fatalf("tours differ at %d", i)
		}
	}

	// Same options again: injection is deterministic through the facade
	// because the plan is cloned per solve.
	res2, err := antgpu.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestLen != res.BestLen || *res2.Recovery != *res.Recovery {
		t.Fatalf("repeat solve diverged: %s vs %s", res2.Recovery, res.Recovery)
	}
}

// TestSolveFailover: above the retry budget the solve degrades to the CPU
// colony, still returns a valid tour, and the trace shows the recovery.
func TestSolveFailover(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	res, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 6,
		Backend:    antgpu.BackendGPU,
		Faults:     &antgpu.FaultPlan{Seed: 3, LaunchRate: 1},
		Recovery:   &antgpu.RecoveryOptions{MaxConsecutiveFaults: 3},
		Profile:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || !res.Recovery.Degraded {
		t.Fatalf("expected CPU degradation, got %s", res.Recovery)
	}
	if err := in.ValidTour(res.BestTour); err != nil {
		t.Fatalf("failover tour invalid: %v", err)
	}
	var sawFailover bool
	for _, ev := range res.Trace.Events() {
		if ev.Cat == "fault" && strings.HasPrefix(ev.Name, "recovery:failover") {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("failover not visible in Result.Trace")
	}
}

// TestCacheServesFaultTolerantSolves: a pooled fault-tolerant gpu AS solve
// takes its NN lists from the derived-data cache like every other gpu AS
// solve — the first of two requests on one instance misses, the second
// hits — and both return the standalone solve's result and report.
func TestCacheServesFaultTolerantSolves(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	opts := antgpu.SolveOptions{
		Iterations: 6,
		Backend:    antgpu.BackendGPU,
		Faults:     &antgpu.FaultPlan{Seed: 20, ECCRate: 0.05, LaunchRate: 0.02},
	}
	want, err := antgpu.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Recovery.Faults == 0 {
		t.Fatal("plan injected no fault; the test is vacuous")
	}
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 1})
	for i := 0; i < 2; i++ {
		got, err := pool.Submit(context.Background(), antgpu.SolveRequest{Instance: in, Options: opts}, nil)
		if err != nil {
			t.Fatalf("pool solve %d: %v", i, err)
		}
		if got.BestLen != want.BestLen || !reflect.DeepEqual(got.BestTour, want.BestTour) ||
			got.SimulatedSeconds != want.SimulatedSeconds || *got.Recovery != *want.Recovery {
			t.Errorf("pool solve %d: %d, %v s (%s), want the standalone %d, %v s (%s)", i,
				got.BestLen, got.SimulatedSeconds, got.Recovery, want.BestLen, want.SimulatedSeconds, want.Recovery)
		}
	}
	if hits, misses := pool.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// TestSolveContextCancel: a cancelled context surfaces context.Canceled on
// both backends.
func TestSolveContextCancel(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
		_, err := antgpu.SolveContext(ctx, in, antgpu.SolveOptions{Iterations: 50, Backend: backend})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("backend %d: got %v, want context.Canceled", backend, err)
		}
	}
}

// TestSolveRejectsInvalidInput: nil and structurally broken instances fail
// with an error — no panic escapes Solve.
func TestSolveRejectsInvalidInput(t *testing.T) {
	if _, err := antgpu.Solve(nil, antgpu.SolveOptions{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := antgpu.Solve(&antgpu.Instance{}, antgpu.SolveOptions{}); err == nil {
		t.Fatal("zero instance accepted")
	}
}

// TestSolveRecoveryUnsupported: the recovery runtime is AS-on-GPU only;
// other configurations fail fast with a clear error.
func TestSolveRecoveryUnsupported(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	ro := &antgpu.RecoveryOptions{}
	cases := []antgpu.SolveOptions{
		{Recovery: ro}, // CPU backend
		{Recovery: ro, Backend: antgpu.BackendGPU, Algorithm: antgpu.AlgorithmMMAS},
		{Recovery: ro, Backend: antgpu.BackendGPU, LocalSearch: true},
	}
	for i, opts := range cases {
		opts.Iterations = 2
		if _, err := antgpu.Solve(in, opts); err == nil {
			t.Fatalf("case %d: unsupported recovery configuration accepted", i)
		}
	}
}

// TestSolveFaultsRawOnOtherAlgorithms: injected faults on a non-AS GPU
// algorithm surface as typed errors instead of being silently swallowed.
func TestSolveFaultsRawOnOtherAlgorithms(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	_, err = antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 4,
		Backend:    antgpu.BackendGPU,
		Algorithm:  antgpu.AlgorithmMMAS,
		Faults:     &antgpu.FaultPlan{Seed: 2, LaunchRate: 1},
	})
	if !errors.Is(err, antgpu.ErrLaunchFailed) {
		t.Fatalf("got %v, want ErrLaunchFailed", err)
	}
}
