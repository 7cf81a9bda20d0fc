package antgpu_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"antgpu"
)

// --- regression: cross-solve device aliasing -------------------------------

// A caller-owned *Device must never be written by Solve: no fault plan
// installed on it, no observer, no allocation accounting or poisoning.
func TestSolveDoesNotMutateCallerDevice(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	dev := antgpu.TeslaM2050()
	plan := &antgpu.FaultPlan{Seed: 7, LaunchRate: 0.05}
	_, err = antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 3, Backend: antgpu.BackendGPU, Device: dev, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Faults != nil {
		t.Errorf("Solve installed a fault plan on the caller's device: %+v", dev.Faults)
	}
	if dev.Observer != nil {
		t.Error("Solve installed an observer on the caller's device")
	}
	if got := dev.AllocatedBytes(); got != 0 {
		t.Errorf("Solve charged %d bytes against the caller's device", got)
	}
	if plan.Launches() != 0 || plan.Faults() != 0 {
		t.Errorf("Solve consumed the caller's fault plan: %d launches, %d faults",
			plan.Launches(), plan.Faults())
	}
}

// A device reused across solves must not leak the previous solve's fault
// plan: a solve with Faults followed by one without must behave exactly
// like a fresh fault-free device.
func TestReusedDeviceDoesNotKeepFaultPlan(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 4, Backend: antgpu.BackendGPU, Device: antgpu.TeslaM2050(),
	})
	if err != nil {
		t.Fatal(err)
	}

	dev := antgpu.TeslaM2050()
	plan := &antgpu.FaultPlan{Seed: 3, LaunchRate: 0.05, WatchdogRate: 0.02}
	faulty, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 4, Backend: antgpu.BackendGPU, Device: dev, Faults: plan,
	})
	if err != nil {
		t.Fatalf("fault-tolerant solve: %v", err)
	}
	if faulty.Recovery == nil {
		t.Fatal("solve with Faults reported no recovery activity")
	}

	clean, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 4, Backend: antgpu.BackendGPU, Device: dev, // Faults nil: no plan
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Recovery != nil {
		t.Error("solve without Faults ran through the recovery runtime")
	}
	if clean.BestLen != fresh.BestLen || !reflect.DeepEqual(clean.BestTour, fresh.BestTour) ||
		clean.SimulatedSeconds != fresh.SimulatedSeconds {
		t.Errorf("reused device differs from fresh device: len %d vs %d, secs %v vs %v",
			clean.BestLen, fresh.BestLen, clean.SimulatedSeconds, fresh.SimulatedSeconds)
	}
}

// N concurrent Solve calls sharing one *Device and one *Instance must be
// race-free (run under -race in CI) and each byte-identical to a solo run.
func TestConcurrentSolvesSharedDeviceAndInstance(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	dev := antgpu.TeslaM2050()
	opts := func(seed uint64) antgpu.SolveOptions {
		return antgpu.SolveOptions{
			Iterations: 3, Backend: antgpu.BackendGPU, Device: dev,
			Params: antgpu.Params{Seed: seed},
		}
	}
	const workers = 8
	want := make([]*antgpu.Result, workers)
	for i := range want {
		res, err := antgpu.Solve(in, opts(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	got := make([]*antgpu.Result, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = antgpu.Solve(in, opts(uint64(i+1)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent solve %d: %v", i, errs[i])
		}
		if got[i].BestLen != want[i].BestLen || !reflect.DeepEqual(got[i].BestTour, want[i].BestTour) ||
			got[i].SimulatedSeconds != want[i].SimulatedSeconds {
			t.Errorf("concurrent solve %d diverged from solo run: len %d vs %d",
				i, got[i].BestLen, want[i].BestLen)
		}
	}
}

// --- regression: parameter defaulting --------------------------------------

// Params{Seed: 42} must actually use seed 42 (and the default α, β, ρ, NN),
// not be silently replaced by DefaultParams because Rho is zero.
func TestParamsSeedHonoredWithOtherFieldsUnset(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
		partial, err := antgpu.Solve(in, antgpu.SolveOptions{
			Iterations: 4, Backend: backend, Params: antgpu.Params{Seed: 42},
		})
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		full := antgpu.DefaultParams()
		full.Seed = 42
		explicit, err := antgpu.Solve(in, antgpu.SolveOptions{
			Iterations: 4, Backend: backend, Params: full,
		})
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if partial.BestLen != explicit.BestLen || !reflect.DeepEqual(partial.BestTour, explicit.BestTour) {
			t.Errorf("backend %d: Params{Seed: 42} != explicit defaults with seed 42 (%d vs %d)",
				backend, partial.BestLen, explicit.BestLen)
		}
		seed1, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 4, Backend: backend})
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if reflect.DeepEqual(partial.BestTour, seed1.BestTour) {
			t.Errorf("backend %d: seed 42 produced the default-seed tour — seed was discarded", backend)
		}
	}
}

// Partially set ACS/MMAS params must keep their set fields instead of being
// replaced wholesale when Rho is unset.
func TestVariantParamsPartialDefaulting(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	acs := antgpu.DefaultACSParams()
	acs.Seed = 9
	wantACS, err := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm: antgpu.AlgorithmACS, Iterations: 5, ACS: acs,
	})
	if err != nil {
		t.Fatal(err)
	}
	partialACS, err := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm: antgpu.AlgorithmACS, Iterations: 5, ACS: antgpu.ACSParams{Params: antgpu.Params{Seed: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantACS.BestLen != partialACS.BestLen || !reflect.DeepEqual(wantACS.BestTour, partialACS.BestTour) {
		t.Errorf("ACS{Seed: 9} was not defaulted per-field: %d vs %d", partialACS.BestLen, wantACS.BestLen)
	}

	mmas := antgpu.DefaultMMASParams()
	mmas.Seed = 9
	wantMMAS, err := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm: antgpu.AlgorithmMMAS, Iterations: 5, MMAS: mmas,
	})
	if err != nil {
		t.Fatal(err)
	}
	partialMMAS, err := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm: antgpu.AlgorithmMMAS, Iterations: 5, MMAS: antgpu.MMASParams{Params: antgpu.Params{Seed: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantMMAS.BestLen != partialMMAS.BestLen || !reflect.DeepEqual(wantMMAS.BestTour, partialMMAS.BestTour) {
		t.Errorf("MMAS{Seed: 9} was not defaulted per-field: %d vs %d", partialMMAS.BestLen, wantMMAS.BestLen)
	}
}

// Genuinely invalid parameter values must fail with the typed
// ErrInvalidParams instead of being silently replaced.
func TestInvalidParamsTypedError(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	bad := []antgpu.SolveOptions{
		{Params: antgpu.Params{Rho: -0.5}},
		{Params: antgpu.Params{Rho: 1.5}},
		{Params: antgpu.Params{Alpha: -1}},
		{Params: antgpu.Params{Ants: -3}},
		{Params: antgpu.Params{NN: -1}},
		{Algorithm: antgpu.AlgorithmACS, ACS: antgpu.ACSParams{Q0: 2}},
		{Algorithm: antgpu.AlgorithmMMAS, MMAS: antgpu.MMASParams{BestEvery: -1}},
	}
	for i, opts := range bad {
		opts.Iterations = 1
		_, err := antgpu.Solve(in, opts)
		if err == nil {
			t.Errorf("case %d: invalid params accepted", i)
			continue
		}
		if !errors.Is(err, antgpu.ErrInvalidParams) {
			t.Errorf("case %d: error %v does not wrap ErrInvalidParams", i, err)
		}
	}
}

// --- batch scheduler --------------------------------------------------------

func batchRequests(t *testing.T) []antgpu.SolveRequest {
	t.Helper()
	att48, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	kroC100, err := antgpu.LoadBenchmark("kroC100")
	if err != nil {
		t.Fatal(err)
	}
	dev := antgpu.TeslaM2050() // shared on purpose: clone-on-solve keeps it safe
	return []antgpu.SolveRequest{
		{Instance: att48, Options: antgpu.SolveOptions{Iterations: 3, Backend: antgpu.BackendGPU, Device: dev}},
		{Instance: att48, Options: antgpu.SolveOptions{Iterations: 3, Backend: antgpu.BackendGPU, Device: dev,
			Params: antgpu.Params{Seed: 2}}},
		{Instance: att48, Options: antgpu.SolveOptions{Iterations: 3}}, // CPU backend
		{Instance: kroC100, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU, Device: dev,
			Tour: antgpu.TourNNList, Pher: antgpu.PherAtomic}},
		{Instance: kroC100, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU,
			Device: antgpu.TeslaC1060(), Params: antgpu.Params{Seed: 5}}},
		{Instance: att48, Options: antgpu.SolveOptions{Algorithm: antgpu.AlgorithmMMAS, Iterations: 3}},
		{Instance: att48, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU, Device: dev,
			Faults: &antgpu.FaultPlan{Seed: 11, LaunchRate: 0.1}}},
	}
}

// SolveBatch must return byte-identical per-request results to the same
// requests run through sequential Solve calls, and report cache hits when a
// batch repeats an instance.
func TestSolveBatchMatchesSequential(t *testing.T) {
	reqs := batchRequests(t)
	want := make([]*antgpu.Result, len(reqs))
	for i, r := range reqs {
		res, err := antgpu.Solve(r.Instance, r.Options)
		if err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
		want[i] = res
	}

	rep, err := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(rep.Results), len(reqs))
	}
	for i, it := range rep.Results {
		if it.Err != nil {
			t.Fatalf("batch solve %d: %v", i, it.Err)
		}
		got := it.Result
		if got.BestLen != want[i].BestLen {
			t.Errorf("request %d: batch len %d != sequential len %d", i, got.BestLen, want[i].BestLen)
		}
		if !reflect.DeepEqual(got.BestTour, want[i].BestTour) {
			t.Errorf("request %d: batch tour differs from sequential tour", i)
		}
		if got.SimulatedSeconds != want[i].SimulatedSeconds {
			t.Errorf("request %d: batch %.9f simulated s != sequential %.9f",
				i, got.SimulatedSeconds, want[i].SimulatedSeconds)
		}
	}
	if rep.CacheHits < 1 {
		t.Errorf("batch repeating instances reported %d cache hits", rep.CacheHits)
	}
	if rep.CacheMisses < 1 {
		t.Errorf("batch reported %d cache misses, want at least one per distinct instance", rep.CacheMisses)
	}
	if rep.SimulatedSeconds <= 0 {
		t.Error("batch reported no simulated time")
	}
}

// Per-request failures must not fail the batch, and results stay in
// request order.
func TestSolveBatchPerRequestErrors(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []antgpu.SolveRequest{
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2}},
		{Instance: nil, Options: antgpu.SolveOptions{Iterations: 2}},
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Params: antgpu.Params{Rho: -1}}},
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU}},
	}
	rep, err := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Err != nil || rep.Results[3].Err != nil {
		t.Errorf("healthy requests failed: %v, %v", rep.Results[0].Err, rep.Results[3].Err)
	}
	if rep.Results[1].Err == nil {
		t.Error("nil-instance request succeeded")
	}
	if !errors.Is(rep.Results[2].Err, antgpu.ErrInvalidParams) {
		t.Errorf("invalid-params request error = %v, want ErrInvalidParams", rep.Results[2].Err)
	}
	if rep.Errs() != 2 {
		t.Errorf("Errs() = %d, want 2", rep.Errs())
	}
}

// A cancelled context fails queued requests with the context error,
// without deriving their data.
func TestSolveBatchCancelledContext(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]antgpu.SolveRequest, 6)
	for i := range reqs {
		reqs[i] = antgpu.SolveRequest{Instance: in, Options: antgpu.SolveOptions{Iterations: 2}}
	}
	rep, err := antgpu.SolveBatch(ctx, reqs, antgpu.PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range rep.Results {
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, it.Err)
		}
	}
	if rep.CacheMisses != 0 {
		t.Errorf("cancelled batch counted %d cache misses", rep.CacheMisses)
	}
}

// Profiled requests merge onto one timeline in request order.
func TestSolveBatchMergedTrace(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []antgpu.SolveRequest{
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU, Profile: true}},
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU,
			Profile: true, Params: antgpu.Params{Seed: 3}}},
	}
	rep, err := antgpu.SolveBatch(context.Background(), reqs, antgpu.PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("no merged trace for profiled batch")
	}
	wantSecs := rep.Results[0].Result.Trace.Seconds() + rep.Results[1].Result.Trace.Seconds()
	if got := rep.Trace.Seconds(); got != wantSecs {
		t.Errorf("merged trace spans %.9f s, want %.9f", got, wantSecs)
	}
	events := rep.Trace.Events()
	if len(events) == 0 || events[0].Name != "req[0] att48" {
		t.Fatalf("merged trace does not start with the req[0] span: %v", events[0])
	}
}

// A Pool reused across batches accumulates cache hits: the second batch
// over the same instance should be all hits.
func TestPoolReuseSharesCacheAcrossBatches(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	pool := antgpu.NewPool(antgpu.PoolOptions{Workers: 2})
	reqs := []antgpu.SolveRequest{
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU}},
		{Instance: in, Options: antgpu.SolveOptions{Iterations: 2, Backend: antgpu.BackendGPU, Params: antgpu.Params{Seed: 2}}},
	}
	first, err := pool.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != 1 {
		t.Errorf("first batch: %d misses, want 1", first.CacheMisses)
	}
	second, err := pool.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != 2 {
		t.Errorf("second batch: %d hits / %d misses, want 2 / 0", second.CacheHits, second.CacheMisses)
	}
	if hits, misses := pool.CacheStats(); hits != 3 || misses != 1 {
		t.Errorf("pool totals: %d hits / %d misses, want 3 / 1", hits, misses)
	}
}
