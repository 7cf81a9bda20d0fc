package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

const recoverIters = 6

// runRecovered steps a Recoverer through iters iterations of the v6 +
// atomic-shared GPU Ant System on dev, the way the facade's run loop does,
// and returns the best tour and length, the simulated seconds and the
// recovery report.
func runRecovered(ctx context.Context, dev *cuda.Device, in *tsp.Instance, p aco.Params, iters int,
	opts core.RecoveryOptions, tr *trace.Collector) ([]int32, int64, float64, *core.RecoveryReport, error) {
	r := core.NewRecoverer(dev, in, p, nil, core.TourNNSharedTexture, core.PherAtomicShared, iters, opts, tr, nil)
	defer r.Close()
	for i := 0; i < iters; i++ {
		if err := r.Step(ctx); err != nil {
			return nil, 0, 0, r.Report(), err
		}
	}
	tour, l := r.Best()
	return tour, l, r.Seconds(), r.Report(), nil
}

func faultFreeRun(t *testing.T, in *tsp.Instance, p aco.Params, iters int) ([]int32, int64) {
	t.Helper()
	dev := cuda.TeslaM2050()
	tour, l, _, _, err := runRecovered(context.Background(), dev, in, p, iters, core.RecoveryOptions{}, nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return tour, l
}

// TestRecoveredMatchesFaultFree is the headline guarantee: with any fault
// kind at rates <= 5%, the recovered GPU solve returns byte-identical
// results to the fault-free solve.
func TestRecoveredMatchesFaultFree(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 7
	wantTour, wantLen := faultFreeRun(t, in, p, recoverIters)

	// Seeds are chosen so every case injects at least one fault within the
	// run's ~30 launch / ~9 allocation opportunities — asserted below, so a
	// seed or fabric change that silently stops injecting fails the test.
	cases := []struct {
		name string
		plan *cuda.FaultPlan
	}{
		{"launch-2pct", &cuda.FaultPlan{Seed: 27, LaunchRate: 0.02}},
		{"launch-5pct", &cuda.FaultPlan{Seed: 19, LaunchRate: 0.05}},
		{"watchdog-5pct", &cuda.FaultPlan{Seed: 18, WatchdogRate: 0.05}},
		{"ecc-3pct", &cuda.FaultPlan{Seed: 20, ECCRate: 0.03}},
		{"mixed-1pct", &cuda.FaultPlan{Seed: 11, LaunchRate: 0.01, WatchdogRate: 0.01, ECCRate: 0.01}},
		{"sticky-launch", &cuda.FaultPlan{Seed: 20, LaunchRate: 0.04, StickyRate: 0.5}},
		{"oom-build", &cuda.FaultPlan{Seed: 11, OOMRate: 0.02}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := cuda.TeslaM2050()
			dev.Faults = tc.plan.Clone()
			tour, l, _, rep, err := runRecovered(context.Background(), dev, in, p, recoverIters, core.RecoveryOptions{}, nil)
			if err != nil {
				t.Fatalf("recovered run: %v (report: %s)", err, rep)
			}
			if rep.Faults == 0 {
				t.Fatal("case injected no fault; it tests nothing")
			}
			if rep.Degraded {
				t.Fatalf("degraded at low fault rate (report: %s)", rep)
			}
			if l != wantLen {
				t.Fatalf("BestLen = %d, want %d (report: %s)", l, wantLen, rep)
			}
			for i := range tour {
				if tour[i] != wantTour[i] {
					t.Fatalf("BestTour[%d] = %d, want %d", i, tour[i], wantTour[i])
				}
			}
		})
	}
}

// TestRecoveredDeterminism: two runs with the same fault seed and solver
// seed inject identical faults and return identical results and reports.
func TestRecoveredDeterminism(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 3
	plan := &cuda.FaultPlan{Seed: 99, LaunchRate: 0.03, WatchdogRate: 0.02, ECCRate: 0.02}

	type result struct {
		tour []int32
		l    int64
		secs float64
		rep  core.RecoveryReport
	}
	run := func() result {
		dev := cuda.TeslaM2050()
		dev.Faults = plan.Clone()
		tour, l, secs, rep, err := runRecovered(context.Background(), dev, in, p, recoverIters, core.RecoveryOptions{}, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return result{tour, l, secs, *rep}
	}
	a, b := run(), run()
	if a.rep.Faults == 0 {
		t.Fatal("expected at least one injected fault")
	}
	if a.l != b.l || a.secs != b.secs || a.rep != b.rep {
		t.Fatalf("runs differ: %+v vs %+v", a.rep, b.rep)
	}
	for i := range a.tour {
		if a.tour[i] != b.tour[i] {
			t.Fatalf("tours differ at %d", i)
		}
	}
}

// TestFailoverToCPU: a fault rate above the retry budget degrades to the
// CPU colony and still returns a valid tour.
func TestFailoverToCPU(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 5
	dev := cuda.TeslaM2050()
	dev.Faults = &cuda.FaultPlan{Seed: 21, LaunchRate: 1}

	tr := trace.NewCollector()
	tour, l, secs, rep, err := runRecovered(context.Background(), dev, in, p, recoverIters, core.RecoveryOptions{MaxConsecutiveFaults: 3}, tr)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if !rep.Degraded {
		t.Fatalf("expected degradation at 100%% fault rate (report: %s)", rep)
	}
	if err := in.ValidTour(tour); err != nil {
		t.Fatalf("failover tour invalid: %v", err)
	}
	if l <= 0 {
		t.Fatalf("failover BestLen = %d", l)
	}
	if secs <= 0 {
		t.Fatalf("failover charged no simulated time")
	}

	// Faults, retries and the failover must all be visible on the timeline.
	var sawFault, sawBackoff, sawFailover bool
	for _, ev := range tr.Events() {
		if ev.Cat != "fault" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "fault:"):
			sawFault = true
		case ev.Name == "recovery:backoff":
			sawBackoff = true
		case ev.Name == "recovery:failover-cpu":
			sawFailover = true
		}
	}
	if !sawFault || !sawBackoff || !sawFailover {
		t.Fatalf("trace missing recovery spans: fault=%v backoff=%v failover=%v",
			sawFault, sawBackoff, sawFailover)
	}
}

// TestWatchdogBudgetFailover: a deterministic watchdog budget makes the
// same kernel fail on every retry, forcing failover (not an infinite loop).
func TestWatchdogBudgetFailover(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 5
	dev := cuda.TeslaM2050()
	dev.Faults = &cuda.FaultPlan{Seed: 1, WatchdogMS: 1e-12}

	_, _, _, rep, err := runRecovered(context.Background(), dev, in, p, 2, core.RecoveryOptions{MaxConsecutiveFaults: 2}, nil)
	if err != nil {
		t.Fatalf("watchdog budget run: %v", err)
	}
	if !rep.Degraded {
		t.Fatalf("expected degradation under an impossible watchdog budget (report: %s)", rep)
	}
}

// TestDisableFailover: with failover disabled the runtime surfaces the
// fault as a typed error instead of degrading.
func TestDisableFailover(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	dev := cuda.TeslaM2050()
	dev.Faults = &cuda.FaultPlan{Seed: 21, LaunchRate: 1}

	_, _, _, _, err := runRecovered(context.Background(), dev, in, p, 2, core.RecoveryOptions{MaxConsecutiveFaults: 2, DisableFailover: true}, nil)
	if !errors.Is(err, cuda.ErrLaunchFailed) {
		t.Fatalf("got %v, want ErrLaunchFailed", err)
	}
}

// TestRecoveredCancellation: a cancelled context stops the solve promptly
// with context.Canceled.
func TestRecoveredCancellation(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dev := cuda.TeslaM2050()
	_, _, _, _, err := runRecovered(ctx, dev, in, p, recoverIters, core.RecoveryOptions{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := dev.AllocatedBytes(); got != 0 {
		t.Fatalf("cancelled run leaked %d device bytes", got)
	}
}

// TestCheckpointRestoreExact: restoring a checkpoint and re-running an
// iteration reproduces the uninterrupted run exactly.
func TestCheckpointRestoreExact(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 9
	dev := cuda.TeslaM2050()
	e, err := core.NewEngine(dev, in, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Free()
	if _, err := e.Iterate(core.TourNNSharedTexture, core.PherAtomicShared); err != nil {
		t.Fatal(err)
	}
	cp := e.Checkpoint()
	if _, err := e.Iterate(core.TourNNSharedTexture, core.PherAtomicShared); err != nil {
		t.Fatal(err)
	}
	straight := append([]float32(nil), e.Pheromone()...)
	_, straightBest := e.Best()

	if err := e.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Iterate(core.TourNNSharedTexture, core.PherAtomicShared); err != nil {
		t.Fatal(err)
	}
	if _, replayBest := e.Best(); replayBest != straightBest {
		t.Fatalf("replay best %d, straight best %d", replayBest, straightBest)
	}
	for i, v := range e.Pheromone() {
		if v != straight[i] {
			t.Fatalf("pheromone[%d] differs after replay: %g vs %g", i, v, straight[i])
		}
	}
}

// TestRecoverySoak drives a solve across a range of fault rates — the CI
// fault-injection soak step runs this under -race.
func TestRecoverySoak(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 2
	wantTour, wantLen := faultFreeRun(t, in, p, 4)
	total := 0
	for _, rate := range []float64{0.01, 0.02, 0.05} {
		dev := cuda.TeslaM2050()
		dev.Faults = &cuda.FaultPlan{Seed: 31, LaunchRate: rate, WatchdogRate: rate / 2, ECCRate: rate / 2}
		tour, l, _, rep, err := runRecovered(context.Background(), dev, in, p, 4, core.RecoveryOptions{}, nil)
		if err != nil {
			t.Fatalf("rate %.2f: %v (report: %s)", rate, err, rep)
		}
		total += rep.Faults
		if rep.Degraded {
			continue // valid outcome at the high end; result may differ
		}
		if l != wantLen {
			t.Fatalf("rate %.2f: BestLen %d, want %d (report: %s)", rate, l, wantLen, rep)
		}
		for i := range tour {
			if tour[i] != wantTour[i] {
				t.Fatalf("rate %.2f: tour differs at %d", rate, i)
			}
		}
	}
	if total == 0 {
		t.Fatal("soak injected no fault across the rate sweep")
	}
}
